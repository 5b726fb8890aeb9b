"""CSV and SVG writers against per-value reference formatters.

The CSV writer formats one cell per run of consecutive equal values in a
column slice (runs found on the values' bits), repeats it over the run, and
formats and writes CSV_SLICE_ROWS rows at a time; the tests read back the
files that write_run_csv and write_curve_csv write.  The SVG writer keeps, on each edge,
the first, last, lowest and highest point of every pixel column (M4) and
prints each with "{:.2f}".  Each reference below picks and formats one value
at a time, and the two must agree byte for byte on awkward floats, large
ints, signed zeros, NaN payloads, ties and runs that cross a slice.
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hte_bandit import svg
from hte_bandit.runner import (CSV_SLICE_ROWS, CURVE_HEADER, RUN_HEADER,
                               RegretCurve, RunResult, write_curve_csv,
                               write_run_csv)
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


def assert_same_text(got: str, want: str) -> None:
    """got == want; on a mismatch, report where the texts first differ
    instead of letting pytest diff megabytes of text."""
    if got != want:
        i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
        lo = max(i - 40, 0)
        pytest.fail(f"texts differ at line {got.count(chr(10), 0, i) + 1}: "
                    f"{got[lo:i + 40]!r} != {want[lo:i + 40]!r}")


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


def test_csv_writers_match_per_value_formatting_across_a_slice(tmp_path):
    """Three rows past the first slice of rows the writers format at once."""
    res = awkward_result(CSV_SLICE_ROWS + 3)
    write_run_csv(tmp_path / "run.csv", res)
    assert_same_text((tmp_path / "run.csv").read_bytes().decode(),
                     reference_run_csv(res))
    curve = RegretCurve(res.t, res.gamma, res.reward)
    write_curve_csv(tmp_path / "curve.csv", curve)
    assert_same_text((tmp_path / "curve.csv").read_bytes().decode(),
                     reference_curve_csv(curve))


def nan_with_payload(payload: int, negative: bool = False) -> float:
    bits = 0x7FF8_0000_0000_0000 | payload | (1 << 63 if negative else 0)
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


def test_csv_runs_split_on_bits_not_equality(tmp_path):
    """Adjacent 0.0 and -0.0 compare equal and NaNs never do; each keeps its
    own cell.  Runs straddle both slice boundaries of a three-slice column."""
    specials = np.array([0.0, -0.0, -0.0, 0.0, nan_with_payload(0), nan_with_payload(1),
                         nan_with_payload(1), nan_with_payload(0, True), math.inf,
                         -math.inf, -math.inf, 5e-324, -5e-324])
    T = 2 * CSV_SLICE_ROWS + 3
    run = np.zeros(T)
    run[CSV_SLICE_ROWS - 4:CSV_SLICE_ROWS + 4] = -0.0
    run[2 * CSV_SLICE_ROWS - 1:] = 0.1 + 0.2
    run[:specials.size] = specials
    steps = np.repeat(np.arange(T // 1000 + 1, dtype=np.int64), 1000)[:T]
    res = RunResult(seed=1, t=np.arange(1, T + 1), epoch=steps,
                    safe=np.ones(T, dtype=int), gamma=run,
                    action=np.where(steps % 2 == 0, 1, 2),
                    propensity=np.resize(specials, T), reward=-run,
                    expected_regret=np.resize([0.0, -0.0], T),
                    cum_expected_regret=np.cumsum(run))
    write_run_csv(tmp_path / "run.csv", res)
    text = (tmp_path / "run.csv").read_bytes().decode()
    assert_same_text(text, reference_run_csv(res))
    gammas = [line.split(",")[3] for line in text.splitlines()[1:4]]
    assert gammas == ["0.0", "-0.0", "-0.0"]
    curve = RegretCurve(res.t, res.gamma, res.propensity)
    write_curve_csv(tmp_path / "curve.csv", curve)
    assert_same_text((tmp_path / "curve.csv").read_bytes().decode(),
                     reference_curve_csv(curve))


def reference_m4(cols, ys):
    """Indices of the first, last, lowest and highest point of each run of
    equal columns, ascending; ties go to the first lowest and the last
    highest index."""
    keep, i = set(), 0
    while i < len(cols):
        j = i
        while j < len(cols) and cols[j] == cols[i]:
            j += 1
        run = range(i, j)
        keep |= {i, j - 1, min(run, key=ys.__getitem__),
                 max(reversed(run), key=ys.__getitem__)}
        i = j
    return sorted(keep)


def reference_line_chart(series, title="", x_label="", y_label="") -> str:
    """The chart with every point mapped, picked per pixel column and
    formatted one at a time."""
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

    def edge(s, ys):
        cols = [min(math.floor(px(x) - MARGIN_L), pw - 1) for x in s.x]
        return [f"{px(s.x[i]):.2f},{py(ys[i]):.2f}" for i in reference_m4(cols, ys)]

    for i, s in enumerate(xs):
        color = PALETTE[i % len(PALETTE)]
        if s.band is not None and np.any(s.band > 0):
            upper = edge(s, [m + b for m, b in zip(s.mean, s.band)])
            lower = edge(s, [m - b for m, b in zip(s.mean, s.band)])[::-1]
            out.append(f'<polygon points="{" ".join(upper + lower)}" '
                       f'fill="{color}" fill-opacity="0.15" stroke="none"/>')
        pts = " ".join(edge(s, list(s.mean)))
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
    n = CSV_SLICE_ROWS + 3
    walk = np.cumsum(rng.uniform(0.0, 1.0, (3, t.size)), axis=1)
    return {
        "one point": [Series("a", [5.0], [0.1 + 0.2], [0.5])],
        "zero band": [Series("a", t, walk[0], np.zeros(t.size)),
                      Series("b", t, -walk[1], None)],
        "banded": [Series(f"s{i}", t, walk[i] * (i + 1), 0.1 * walk[i] + 1e-9 * i)
                   for i in range(3)] + [Series("empty", [], [], [])],
        # Plateaus of equal values, signed zeros among them, many per column.
        "ties": [Series("steps", np.arange(1, 5001, dtype=float),
                        np.repeat(rng.integers(0, 3, 500), 10)
                        * np.where(np.arange(5000) % 3, 0.5, -0.0),
                        np.repeat([0.25, 0.0, 0.5, 0.25], 1250))],
        "past a slice": [Series("long", np.arange(1, n + 1, dtype=float),
                                np.cumsum(rng.uniform(0.0, 1.0, n)),
                                np.sqrt(np.arange(n, dtype=float))),
                         Series("flat", [1.0, float(n)], [0.0, -0.0], [0.0, 0.0])],
    }


@pytest.mark.parametrize("case", ["one point", "zero band", "banded", "ties", "past a slice"])
def test_line_chart_matches_per_point_formatting(tmp_path, case):
    series = chart_cases()[case]
    got = line_chart(series, title="t", x_label="round", y_label="regret")
    assert_same_text(got, reference_line_chart(series, "t", "round", "regret"))
    assert ("<polygon" in got) == (case != "zero band")
    svg.write_chart(tmp_path / "c.svg", series, "t", "round", "regret")
    assert Path(tmp_path / "c.svg").read_text(encoding="utf-8") == got


CURVES = {
    "walk": np.cumsum,
    "monotone": lambda steps: np.cumsum(np.abs(steps)),
    "constant": lambda steps: np.full(steps.size, steps[0]),
    "ties": np.round,  # a few distinct values, -0.0 beside 0.0
}


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=300),
       st.sampled_from(sorted(CURVES)), st.integers(1, 40))
def test_m4_keeps_each_columns_first_last_min_and_max_in_order(steps, kind, columns):
    y = CURVES[kind](np.array(steps))
    col = np.floor(np.arange(y.size) * columns / y.size)
    keep = svg._m4(col, y)
    # original points, in the original order, each once
    assert keep.dtype.kind == "i" and np.all(np.diff(keep) > 0)
    assert 0 <= keep[0] and keep[-1] < y.size
    for c in np.unique(col):
        run = np.flatnonzero(col == c)
        kept = keep[(keep >= run[0]) & (keep <= run[-1])]
        assert {run[0], run[-1]} <= set(kept.tolist()) and kept.size <= 4
        assert y[kept].min() == y[run].min() and y[kept].max() == y[run].max()


def test_a_long_chart_keeps_at_most_four_points_per_pixel_column_per_edge():
    """T = 10^6: a non-decreasing mean keeps its first and last point in each
    of the 640 columns, and each noisy band edge at most four."""
    T = 10 ** 6
    rng = np.random.default_rng(11)
    t = np.arange(1, T + 1, dtype=float)
    got = line_chart([Series("long", t, np.cumsum(rng.uniform(0.0, 1.0, T)),
                             np.sqrt(t) * rng.uniform(0.5, 1.5, T))])
    pw = WIDTH - MARGIN_L - MARGIN_R
    line = re.search('<polyline points="([^"]*)"', got).group(1).split(" ")
    polygon = re.search('<polygon points="([^"]*)"', got).group(1).split(" ")
    assert len(line) == 2 * pw
    assert 2 * pw <= len(polygon) <= 2 * 4 * pw
