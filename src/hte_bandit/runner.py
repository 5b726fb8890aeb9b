"""Experiment driver: seeded runs, CSV/SVG emission, paired comparisons.

Per seed, the environment draws (contexts, noise, ground truth) come from
streams that never see policy randomness, so every algorithm replays the
identical reward landscape and comparisons are paired.  Workers only
compute; all files are written from the coordinating process in seed
order, which keeps repeated invocations byte-identical regardless of the
worker count (capped by HTE_BANDIT_THREADS).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .config import ConfigError, RunConfig
from .core import (STREAM_ACTION, STREAM_CONTEXT, STREAM_NOISE, rng_stream)
from .environments import build_environment, expected_regret
from .policy import FitRecord
from .svg import Series, write_chart

RUN_HEADER = "t,epoch,safe,gamma,action,propensity,reward,expected_regret,cum_expected_regret"
CURVE_HEADER = "t,mean_cum_regret,std_cum_regret"
COMPARE_HEADER = "algorithm,final_mean_cum_regret,final_std_cum_regret,ratio_vs_first"


@dataclass
class RunResult:
    seed: int
    t: np.ndarray
    epoch: np.ndarray
    safe: np.ndarray
    gamma: np.ndarray
    action: np.ndarray
    propensity: np.ndarray
    reward: np.ndarray
    expected_regret: np.ndarray
    cum_expected_regret: np.ndarray
    fits: List[FitRecord] = field(default_factory=list)
    triggered: bool = False
    trigger_round: int = 0
    fallback_epoch: int = 0

    def final_regret(self) -> float:
        return float(self.cum_expected_regret[-1]) if self.t.size else 0.0


@dataclass
class RegretCurve:
    t: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    per_seed: np.ndarray   # (num_seeds, T)

    def final_mean(self) -> float:
        return float(self.mean[-1]) if self.t.size else 0.0

    def final_std(self) -> float:
        return float(self.std[-1]) if self.t.size else 0.0


@dataclass
class ExperimentResult:
    config: RunConfig
    results: List[RunResult]
    curve: RegretCurve


def run_single(config: RunConfig, seed: int,
               on_round: Optional[Callable] = None,
               keep_fit_inputs: bool = False) -> RunResult:
    """One seeded trajectory of the configured algorithm."""
    env = build_environment(config.env_spec(seed))
    policy = config.policy(seed, keep_fit_inputs)
    rng_ctx = rng_stream(seed, STREAM_CONTEXT)
    rng_noise = rng_stream(seed, STREAM_NOISE)
    rng_act = rng_stream(seed, STREAM_ACTION)

    T = config.horizon
    cols = {name: [] for name in ("t", "epoch", "safe", "gamma", "action",
                                  "propensity", "reward", "expected_regret")}
    trigger_round = 0
    for t in range(1, T + 1):
        rnd = env.sample_round(rng_ctx, rng_noise, t)
        action, dist, info = policy.act(t, rnd.context, rng_act)
        reward = rnd.reward(action)
        was_safe = policy.safe
        policy.record(t, rnd.context, action, dist, reward)
        if was_safe and not policy.safe:
            trigger_round = t
        cols["t"].append(t)
        cols["epoch"].append(info["epoch"])
        cols["safe"].append(1 if info["safe"] else 0)
        cols["gamma"].append(info["gamma"])
        cols["action"].append(action)
        cols["propensity"].append(dist.prob(action))
        cols["reward"].append(reward)
        cols["expected_regret"].append(expected_regret(rnd, action))
        if on_round is not None:
            on_round(t=t, round_=rnd, action=action, dist=dist, info=info)

    reg = np.array(cols["expected_regret"])
    return RunResult(
        seed=seed,
        t=np.array(cols["t"], dtype=int),
        epoch=np.array(cols["epoch"], dtype=int),
        safe=np.array(cols["safe"], dtype=int),
        gamma=np.array(cols["gamma"]),
        action=np.array(cols["action"], dtype=int),
        propensity=np.array(cols["propensity"]),
        reward=np.array(cols["reward"]),
        expected_regret=reg,
        cum_expected_regret=np.cumsum(reg),
        fits=policy.fits,
        triggered=not policy.safe,
        trigger_round=trigger_round,
        fallback_epoch=policy.safe_epoch,
    )


def aggregate_curve(results: Sequence[RunResult]) -> RegretCurve:
    if not results or results[0].t.size == 0:
        empty = np.array([])
        return RegretCurve(empty, empty, empty, np.empty((len(results), 0)))
    per_seed = np.stack([r.cum_expected_regret for r in results])
    return RegretCurve(results[0].t, per_seed.mean(axis=0),
                       per_seed.std(axis=0), per_seed)


def _worker(args) -> RunResult:
    config, seed = args
    return run_single(config, seed)


def _worker_count(num_seeds: int) -> int:
    cap = os.environ.get("HTE_BANDIT_THREADS")
    try:
        limit = int(cap) if cap else (os.cpu_count() or 1)
    except ValueError:
        raise ConfigError(f"HTE_BANDIT_THREADS must be an integer, got {cap!r}") from None
    return max(1, min(num_seeds, os.cpu_count() or 1, limit))


def run_seeds(config: RunConfig) -> List[RunResult]:
    seeds = list(config.seeds)
    workers = _worker_count(len(seeds))
    if workers <= 1:
        return [run_single(config, s) for s in seeds]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_worker, [(config, s) for s in seeds]))


# -- file emission -----------------------------------------------------------

def _f(v: float) -> str:
    return repr(float(v))


def write_run_csv(path, result: RunResult) -> None:
    lines = [RUN_HEADER]
    for i in range(result.t.size):
        lines.append(",".join((
            str(int(result.t[i])), str(int(result.epoch[i])),
            str(int(result.safe[i])), _f(result.gamma[i]),
            str(int(result.action[i])), _f(result.propensity[i]),
            _f(result.reward[i]), _f(result.expected_regret[i]),
            _f(result.cum_expected_regret[i]))))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_curve_csv(path, curve: RegretCurve) -> None:
    lines = [CURVE_HEADER]
    for i in range(curve.t.size):
        lines.append(",".join((str(int(curve.t[i])), _f(curve.mean[i]),
                               _f(curve.std[i]))))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_experiment(config: RunConfig, write: bool = True) -> ExperimentResult:
    """Run every seed, aggregate, and (optionally) emit CSV + SVG artifacts."""
    results = run_seeds(config)
    curve = aggregate_curve(results)
    if write:
        out = Path(config.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        for r in results:
            write_run_csv(out / f"run_{r.seed}.csv", r)
        write_curve_csv(out / "curve.csv", curve)
        series = [Series(config.algorithm, curve.t, curve.mean, curve.std)]
        write_chart(out / "curve.svg", series,
                    title=f"{config.scenario}: cumulative expected regret",
                    x_label="round", y_label="cumulative regret")
    return ExperimentResult(config, results, curve)


def compare(config: RunConfig, algorithms: Sequence[str],
            write: bool = True) -> Dict[str, ExperimentResult]:
    """Paired comparison: same environment seeds, one run set per algorithm."""
    from dataclasses import replace

    if len(algorithms) < 1:
        raise ValueError("need at least one algorithm")
    out = Path(config.output_dir)
    # Validate every configuration before any run starts or writes a file.
    subs = [replace(config, algorithm=algo,
                    output_dir=str(out / algo) if write else config.output_dir
                    ).validate() for algo in algorithms]
    results: Dict[str, ExperimentResult] = {
        sub.algorithm: run_experiment(sub, write=write) for sub in subs}

    if write:
        out.mkdir(parents=True, exist_ok=True)
        first = algorithms[0]
        base = results[first].curve.final_mean()
        lines = [COMPARE_HEADER]
        for algo in algorithms:
            cur = results[algo].curve
            ratio = cur.final_mean() / base if base != 0 else float("nan")
            lines.append(",".join((algo, _f(cur.final_mean()), _f(cur.final_std()),
                                   _f(ratio))))
        (out / "compare.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        series = [Series(a, results[a].curve.t, results[a].curve.mean,
                         results[a].curve.std) for a in algorithms]
        write_chart(out / "compare.svg", series,
                    title=f"{config.scenario}: algorithm comparison",
                    x_label="round", y_label="cumulative regret")
    return results


# -- run-level structural sweep ----------------------------------------------

def implicit_regret_sweep(config: RunConfig, seed: int) -> float:
    """Max over rounds of sum_a p(a)(s_max - s_a) - K / gamma.

    The kernel guarantees this is <= 0 up to float error for every context;
    callers assert against a small positive tolerance.
    """
    worst = -np.inf
    K = config.num_actions

    def check(t, round_, action, dist, info):
        nonlocal worst
        s = info["scores"]
        lhs = float(dist.probs @ (s.max() - s))
        worst = max(worst, lhs - K / info["gamma"])

    run_single(config, seed, on_round=check)
    return worst
