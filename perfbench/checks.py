"""Output checks computed by the benchmark itself, apart from the program.

Each function returns a list of breach messages; an empty list means the
checked property holds.  None of these compares against stored copies of
earlier output: every expected value is recomputed here from the program's
logged columns, its artifacts, or the inputs it was given.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

PROB_TOL = 1e-12        # uniform / epoch-1 propensities must equal 1/K this closely
SUM_RTOL = 1e-12        # recomputed sums and means, relative
KKT_TOL = 1e-6          # lasso optimality, as in acceptance criterion 9
DESIGN_TOL = 1e-12      # residualized design rows against the arm-block formula
RIDGE_RTOL = 1e-6       # ridge theta against numpy.linalg.solve, relative


def _close(a, b, rtol=SUM_RTOL) -> bool:
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and bool(
        np.all(np.abs(a - b) <= rtol * np.maximum(1.0, np.abs(b))))


def run_log(label: str, t, epoch, safe, gamma, propensity, expected_regret,
            cum_expected_regret, num_actions: int, uniform: bool,
            horizon: int) -> List[str]:
    """Invariants of one run's per-round log (in memory or read from CSV)."""
    out = []
    t = np.asarray(t)
    if t.size != horizon or not np.array_equal(t, np.arange(1, horizon + 1)):
        out.append(f"{label}: rounds are not 1..{horizon}")
        return out
    reg = np.asarray(expected_regret, float)
    if not _close(cum_expected_regret, np.cumsum(reg)):
        out.append(f"{label}: cum_expected_regret is not the cumulative sum")
    if np.any(reg < 0):
        out.append(f"{label}: negative expected regret")
    prop = np.asarray(propensity, float)
    if np.any(prop <= 0) or np.any(prop > 1):
        out.append(f"{label}: propensity outside (0, 1]")
    flat = np.ones(t.size, bool) if uniform else (np.asarray(epoch) == 1)
    if np.any(np.abs(prop[flat] - 1.0 / num_actions) > PROB_TOL):
        out.append(f"{label}: uniform-phase propensity differs from 1/K")
    safe = np.asarray(safe)
    if np.any((safe != 0) & (safe != 1)) or np.any(np.diff(safe) > 0):
        out.append(f"{label}: safe flag returns to 1 after a 0")
    frozen = np.asarray(gamma, float)[safe == 0]
    if frozen.size and np.any(frozen != frozen[0]):
        out.append(f"{label}: gamma changes after the monitor triggered")
    return out


def run_result(label: str, res, num_actions: int, uniform: bool,
               horizon: int) -> List[str]:
    return run_log(label, res.t, res.epoch, res.safe, res.gamma, res.propensity,
                   res.expected_regret, res.cum_expected_regret, num_actions,
                   uniform, horizon)


# -- artifacts of the CLI ------------------------------------------------------

def read_csv(path: Path) -> Dict[str, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def compare_artifacts(out: Path, algorithms: Sequence[str], seeds: Sequence[int],
                      horizon: int, num_actions: int,
                      must_trigger: Sequence[str]) -> List[str]:
    """run_*.csv invariants, curve.csv and compare.csv recomputed from the runs."""
    breaches = []
    finals = {}
    for algo in algorithms:
        runs = []
        for seed in seeds:
            path = out / algo / f"run_{seed}.csv"
            if not path.is_file():
                breaches.append(f"{path.name} missing for {algo}")
                continue
            log = read_csv(path)
            runs.append(log)
            label = f"{algo}/run_{seed}"
            breaches += run_log(label, log["t"], log["epoch"], log["safe"],
                                log["gamma"], log["propensity"],
                                log["expected_regret"], log["cum_expected_regret"],
                                num_actions, algo == "uniform", horizon)
            if algo in must_trigger and not np.any(log["safe"] == 0):
                breaches.append(f"{label}: safety monitor never triggered")
        if len(runs) != len(seeds):
            continue
        cum = np.stack([r["cum_expected_regret"] for r in runs])
        curve = read_csv(out / algo / "curve.csv")
        if not (np.array_equal(curve["t"], runs[0]["t"])
                and _close(curve["mean_cum_regret"], cum.mean(axis=0))
                and _close(curve["std_cum_regret"], cum.std(axis=0))):
            breaches.append(f"{algo}/curve.csv differs from the mean over run_*.csv")
        finals[algo] = (float(cum[:, -1].mean()), float(cum[:, -1].std()))
        breaches += svg_file(out / algo / "curve.svg")

    lines = (out / "compare.csv").read_text(encoding="utf-8").splitlines()
    rows = {ln.split(",")[0]: [float(v) for v in ln.split(",")[1:]] for ln in lines[1:]}
    if list(rows) != list(algorithms):
        breaches.append("compare.csv does not list the algorithms in order")
    elif len(finals) == len(algorithms):
        base = finals[algorithms[0]][0]
        for algo in algorithms:
            mean, std = finals[algo]
            want = [mean, std, mean / base if base != 0 else math.nan]
            if not _close(rows[algo], want):
                breaches.append(f"compare.csv row {algo} differs from the runs")
    breaches += svg_file(out / "compare.svg")
    return breaches


def svg_file(path: Path) -> List[str]:
    if not path.is_file():
        return [f"{path.name} missing"]
    text = path.read_text(encoding="utf-8")
    if not (text.startswith("<svg") and text.endswith("</svg>\n")
            and "<polyline" in text):
        return [f"{path} is not a complete chart"]
    return []


def same_bytes(a: Path, b: Path) -> List[str]:
    """Every file under a and b exists on both sides with identical bytes."""
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if files_a != files_b:
        return [f"artifact sets differ: {len(files_a)} vs {len(files_b)} files"]
    return [f"{rel} differs between worker counts" for rel in files_a
            if (a / rel).read_bytes() != (b / rel).read_bytes()]


# -- refit inputs and outputs (traced run) ---------------------------------------

def residualized_rows(samples, feature_map, Z, y) -> List[str]:
    """z_t = (e_a - p_t) kron [x_t; 1] for the arm-block map, y_t = r_t - mu_t."""
    if feature_map.kind != "arm_block_with_intercept":
        return []
    n, K = len(samples), feature_map.num_actions
    X1 = np.ones((n, feature_map.raw_dim + 1))
    E = np.empty((n, K))
    want_y = np.empty(n)
    for i, s in enumerate(samples):
        X1[i, :-1] = s.context
        E[i] = -s.propensities.probs
        E[i, s.action - 1] += 1.0
        want_y[i] = s.reward - s.mu_hat
    want = (E[:, :, None] * X1[:, None, :]).reshape(n, -1)
    if Z.shape != want.shape or np.max(np.abs(Z - want)) > DESIGN_TOL:
        return ["residualized_design rows differ from (e_a - p) kron [x; 1]"]
    if np.max(np.abs(y - want_y)) > DESIGN_TOL:
        return ["residualized_design targets differ from r - mu_hat"]
    return []


def ridge_solution(Z, y, ridge: float, theta) -> List[str]:
    A = Z.T @ Z
    A[np.diag_indices_from(A)] += ridge
    b = Z.T @ y
    ref = np.linalg.solve(A, b)
    err = np.linalg.norm(theta - ref) / max(np.linalg.norm(ref), 1e-300)
    if not err <= RIDGE_RTOL:
        return [f"ridge theta off the normal equations by {err:.2e} (relative)"]
    return []


def lasso_kkt(Z, y, theta, lam: float, unpenalized: Sequence[int]) -> List[str]:
    """Largest violation of the lasso optimality conditions on RMS-scaled
    columns: |grad_j| <= lam at zeros, grad_j = lam sign(theta_j) when active,
    grad_j = 0 on unpenalized coordinates."""
    n = Z.shape[0]
    scales = np.sqrt(np.mean(Z * Z, axis=0))
    live = scales > 0
    corr = (Z[:, live] / scales[live]).T @ (y - Z @ theta) / n
    th = theta[live] * scales[live]
    pen = np.ones(theta.size, bool)
    pen[list(unpenalized)] = False
    pen = pen[live]
    active = np.abs(th) > 1e-12
    viol = np.where(active, np.abs(corr - lam * np.sign(th)),
                    np.maximum(np.abs(corr) - lam, 0.0))
    viol = np.where(pen, viol, np.abs(corr))
    worst = float(viol.max()) if viol.size else 0.0
    if not worst <= KKT_TOL:
        return [f"lasso KKT residual {worst:.2e} > {KKT_TOL:g}"]
    return []
