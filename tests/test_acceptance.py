"""Desk-scale acceptance gate.

Eleven go/no-go criteria, one test each.  Every test prints a single
PASS/FAIL line (visible under `pytest -s`) and asserts the same condition.
The regret grid (d=20, T=5000, 10 paired seeds per scenario) is computed
once per module; expect roughly a minute of wall clock for the full gate.
"""

import filecmp
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from hte_bandit.config import RunConfig
from hte_bandit.core import (ActionDistribution, EpochSchedule, LoggedSample,
                             STREAM_VALIDATION, custom_map, rng_stream)
from hte_bandit.oracle import fit_rloss, fit_rloss_lasso
from hte_bandit.policy import Policy, igw_kernel
from hte_bandit.runner import implicit_regret_sweep, run_experiment
from hte_bandit.validation import (excess_risk_identity_gap,
                                   misspec_bound_check, random_instance,
                                   random_kernel, random_model_class,
                                   shifted_class)

DESK = dict(d=20, num_actions=2, sigma=0.1, horizon=5000,
            schedule_kind="doubling", schedule_base=128,
            delta=0.05, n_min=32, ridge_scale=1e-6, num_folds=2,
            rate_const=0.01, lasso_const=1.5, seeds=tuple(range(101, 111)))

CELLS = (("lin_lin", "hte_igw"), ("lin_lin", "igw"),
         ("lin_const", "mod_hte_igw"), ("lin_const", "mod_igw"),
         ("step_lin", "hte_igw"), ("step_lin", "igw"), ("step_lin", "uniform"),
         ("perturbed", "mod_hte_igw"), ("perturbed", "mod_igw"))


def desk_config(scenario: str, algorithm: str) -> RunConfig:
    return RunConfig(scenario=scenario, algorithm=algorithm, **DESK).validate()


@pytest.fixture(scope="module")
def grid():
    return {cell: run_experiment(desk_config(*cell), write=False)
            for cell in CELLS}


def report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d} ({label}): {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def final(grid, scenario, algo) -> float:
    return grid[(scenario, algo)].curve.final_mean()


def test_criterion_01_excess_risk_identity():
    start = time.perf_counter()
    rng = rng_stream(2026, STREAM_VALIDATION)
    worst = 0.0
    for _ in range(50):
        inst = random_instance(rng)
        g = rng.uniform(-2.5, 2.5, inst.f_star.shape)
        mu_a = rng.uniform(-2.0, 2.0, inst.num_contexts)
        mu_b = rng.uniform(-2.0, 2.0, inst.num_contexts)
        worst = max(worst, excess_risk_identity_gap(inst, g, mu_a, mu_b))
    wall = time.perf_counter() - start
    report(1, "excess-risk identity", worst <= 1e-10 and wall < 5.0,
           f"max deviation {worst:.2e} over 50 instances x 2 nuisance tables, "
           f"{wall:.2f}s")


def test_criterion_02_misspecification_bound():
    start = time.perf_counter()
    rng = rng_stream(2027, STREAM_VALIDATION)
    cases = 0
    holds = True
    for _ in range(100):
        inst = random_instance(rng, noise=False)
        cls = random_model_class(rng, inst)
        kerns = [random_kernel(rng, inst.num_contexts, inst.num_actions)
                 for _ in range(20)]
        rep = misspec_bound_check(inst, cls, kerns, tol=1e-12)
        holds = holds and rep.holds
        cases += len(kerns)
    strict = random_instance(rng, noise=False)
    srep = misspec_bound_check(strict, shifted_class(strict, 0.5),
                               [strict.kernel])
    gap = srep.best_squared - srep.best_excess
    wall = time.perf_counter() - start
    ok = holds and cases == 2000 and srep.holds and gap >= 0.1 and wall < 30.0
    report(2, "misspecification bound",
           ok, f"{cases}/2000 cases hold at 1e-12, strict-gap witness "
               f"{gap:.3f} >= 0.1, {wall:.2f}s")


def test_criterion_03_kernel_invariants():
    start = time.perf_counter()
    rng = rng_stream(2028, STREAM_VALIDATION)
    ok = True
    for _ in range(100_000):
        K = int(rng.integers(2, 7))
        scores = 3.0 * rng.standard_normal(K)
        gamma = float(np.exp(rng.uniform(0.0, 9.0)))
        p = igw_kernel(scores, gamma).probs
        ok = ok and abs(p.sum() - 1.0) <= 1e-12 and p.min() >= -1e-12
        ahat = int(np.argmax(scores))
        ok = ok and p[ahat] >= 1.0 / K - 1e-15 and p[ahat] == p.max()
        if not ok:
            break
    wall = time.perf_counter() - start
    report(3, "kernel invariants", ok and wall < 5.0,
           f"100000 random (scores, gamma) draws: simplex 1e-12, leader mass "
           f">= 1/K, argmax preserved, {wall:.2f}s")


def test_criterion_04_implicit_regret_bound():
    worst = implicit_regret_sweep(desk_config("lin_lin", "hte_igw"), 101)
    report(4, "implicit regret bound", worst <= 1e-12,
           f"max of sum_a p(a)(s_max - s_a) - K/gamma over a full run: "
           f"{worst:.2e} <= 1e-12")


def test_criterion_05_realizable_linear_scenario(grid):
    details = []
    ok = True
    finals = {}
    for algo in ("hte_igw", "igw"):
        curve = grid[("lin_lin", algo)].curve
        half = float(curve.mean[len(curve.mean) // 2 - 1])
        fin = curve.final_mean()
        finals[algo] = fin
        ratio = fin / half
        ok = ok and ratio < 1.9
        details.append(f"{algo} growth {ratio:.3f}")
    rel = abs(finals["hte_igw"] - finals["igw"]) / min(finals.values())
    ok = ok and rel <= 0.25
    report(5, "realizable linear scenario", ok,
           ", ".join(details) + f", final regrets {finals['hte_igw']:.1f} vs "
           f"{finals['igw']:.1f} (rel diff {rel:.3f} <= 0.25)")


def test_criterion_06_sparse_constant_effect_scenario(grid):
    f_hte = final(grid, "lin_const", "mod_hte_igw")
    f_igw = final(grid, "lin_const", "mod_igw")
    clean = 0
    for res in grid[("lin_const", "mod_hte_igw")].results:
        late = [f for f in res.fits if f.data_epoch >= 2]
        if late and all(f.model.active_context_coefficients() == 0 for f in late):
            clean += 1
    ok = f_hte <= 0.6 * f_igw and clean >= 8
    report(6, "sparse constant-effect scenario", ok,
           f"final {f_hte:.1f} <= 0.6 x {f_igw:.1f}, all-zero context "
           f"coefficients after epoch 2 in {clean}/10 seeds (need >= 8)")


def test_criterion_07_confounded_step_scenario(grid):
    f_hte = final(grid, "step_lin", "hte_igw")
    f_igw = final(grid, "step_lin", "igw")
    f_uni = final(grid, "step_lin", "uniform")
    ok = f_hte < f_igw and f_igw >= 0.7 * f_uni
    report(7, "confounded step scenario", ok,
           f"final {f_hte:.1f} < {f_igw:.1f}, and squared-error variant at "
           f"{f_igw / f_uni:.3f} x uniform ({f_uni:.1f}) >= 0.7")


def test_criterion_08_perturbed_scenario(grid):
    f_hte = final(grid, "perturbed", "mod_hte_igw")
    f_igw = final(grid, "perturbed", "mod_igw")
    report(8, "perturbed scenario", f_hte < f_igw,
           f"final {f_hte:.1f} < {f_igw:.1f}")


def direct_map(p):
    fn = lambda x, a: np.asarray(x, float) if a == 1 else np.zeros(p)
    return custom_map(fn, feature_dim=p, num_actions=2)


def direct_samples(Z, y):
    # action 1 carries the row with zero propensity, so the residualized
    # design reproduces Z exactly and the fit is a plain regression
    off = ActionDistribution(np.array([0.0, 1.0]))
    return [LoggedSample(context=np.array(z), action=1, propensities=off,
                         reward=float(v), mu_hat=0.0) for z, v in zip(Z, y)]


def kkt_residual(Z, y, theta, lam):
    n = Z.shape[0]
    scales = np.sqrt(np.mean(Z * Z, axis=0))
    corr = (Z / scales).T @ (y - Z @ theta) / n
    worst = 0.0
    for j, c in enumerate(corr):
        if abs(theta[j] * scales[j]) > 1e-12:
            worst = max(worst, abs(c - lam * math.copysign(1.0, theta[j])))
        else:
            worst = max(worst, max(abs(c) - lam, 0.0))
    return worst


def test_criterion_09_oracle_equivalence():
    rng = rng_stream(2029, STREAM_VALIDATION)
    worst_dense = worst_l1 = worst_kkt = 0.0
    for _ in range(20):
        n, p = 120, 6
        Z = rng.standard_normal((n, p))
        y = Z @ rng.uniform(-2.0, 2.0, p) + 0.1 * rng.standard_normal(n)
        fmap = direct_map(p)
        samples = direct_samples(Z, y)
        exact = fit_rloss(samples, fmap, ridge=0.0)
        dense = np.linalg.solve(Z.T @ Z, Z.T @ y)
        worst_dense = max(worst_dense, float(np.max(np.abs(exact.theta - dense))))
        zero_pen = fit_rloss_lasso(samples, fmap, lam=0.0)
        worst_l1 = max(worst_l1, float(np.max(np.abs(zero_pen.theta - exact.theta))))
        lasso = fit_rloss_lasso(samples, fmap, lam=0.05)
        worst_kkt = max(worst_kkt, kkt_residual(Z, y, lasso.theta, 0.05))
    ok = worst_dense <= 1e-8 and worst_l1 <= 1e-6 and worst_kkt <= 1e-6
    report(9, "oracle equivalence", ok,
           f"dense-solve gap {worst_dense:.2e} <= 1e-8, zero-penalty gap "
           f"{worst_l1:.2e} <= 1e-6, KKT residual {worst_kkt:.2e} <= 1e-6 "
           f"over 20 instances")


def closed_form_trigger(n_bench, t0, delta, lo=0.1, hi=0.9,
                        bench_epoch=2, cur_epoch=3):
    def width(j, n, t):
        return math.sqrt(math.log(4.0 * j * j * t * t / delta) / (2.0 * n))
    for n_cur in range(1, 100_000):
        t = t0 + n_cur
        if lo + width(cur_epoch, n_cur, t) < hi - width(bench_epoch, n_bench, t):
            return t
    raise AssertionError("no trigger found")


def test_criterion_10_safety_monitor(grid):
    pol = Policy("hte_igw", 2, 2,
                 EpochSchedule("explicit_list", boundaries=(4, 68, 300, 2000)),
                 delta=0.05, seed=7, n_min=32, reward_range=(0.0, 1.0))
    rng = rng_stream(44, 2)
    rng_x = rng_stream(44, 0)
    trigger_round = None
    for t in range(1, 301):
        x = rng_x.standard_normal(2)
        action, dist, _ = pol.act(t, x, rng)
        pol.record(t, x, action, dist, 0.9 if t <= 68 else 0.1)
        if trigger_round is None and not pol.safe:
            trigger_round = t
    predicted = closed_form_trigger(64, 68, 0.05)
    within = trigger_round is not None and abs(trigger_round - predicted) <= 10

    frozen = True
    probes = [rng_x.standard_normal(2) for _ in range(3)]
    model, gamma = pol.kernels[pol.safe_epoch]
    expected = [igw_kernel(model.predict(x), gamma).probs for x in probes]
    for t in (301, 500, 1000, 1999):
        for x, want in zip(probes, expected):
            _, dist, _ = pol.act(t, x, rng)
            frozen = frozen and bool(np.array_equal(dist.probs, want))

    triggers = sum(r.triggered for r in grid[("lin_lin", "hte_igw")].results)
    ok = within and frozen and triggers == 0
    report(10, "safety monitor", ok,
           f"adversarial trigger at t={trigger_round} vs closed form "
           f"{predicted} (|diff| <= 10), kernel frozen afterwards: {frozen}, "
           f"realizable triggers {triggers}/10 (need 0)")


def test_criterion_11_determinism(tmp_path):
    cfg = replace(desk_config("lin_lin", "hte_igw"),
                  horizon=1000, seeds=(101, 102))
    dirs = (tmp_path / "a", tmp_path / "b")
    for d in dirs:
        run_experiment(replace(cfg, output_dir=str(d)))
    names = ("run_101.csv", "run_102.csv", "curve.csv")
    same = all(filecmp.cmp(dirs[0] / n, dirs[1] / n, shallow=False)
               for n in names)
    report(11, "determinism", same,
           "repeated runs produced bitwise-identical CSV artifacts: "
           f"{', '.join(names)}")
