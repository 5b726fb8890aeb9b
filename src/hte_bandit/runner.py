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
from .core import (STREAM_ACTION, STREAM_CONTEXT, STREAM_NOISE, ActionDistribution,
                   rng_stream)
from .environments import build_environment
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
               on_round: Optional[Callable] = None) -> RunResult:
    """One seeded trajectory of the configured algorithm, simulated one
    epoch block at a time.  on_round(t=, round_=, action=, dist=, info=),
    if given, is called once per round, in round order."""
    env = build_environment(config.env_spec(seed))
    policy = config.policy(seed)
    rngs = tuple(rng_stream(seed, s)
                 for s in (STREAM_CONTEXT, STREAM_NOISE, STREAM_ACTION))
    T = config.horizon
    res = RunResult(seed=seed, t=np.arange(1, T + 1),
                    epoch=np.empty(T, dtype=int), safe=np.empty(T, dtype=int),
                    gamma=np.empty(T), action=np.empty(T, dtype=int),
                    propensity=np.empty(T), reward=np.empty(T),
                    expected_regret=np.empty(T), cum_expected_regret=np.empty(0))
    schedule = policy.schedule
    t = 1
    while t <= T:
        end = min(schedule.boundary(schedule.epoch_of(t)), T)
        # Refit before drawing the block, so no block arrays are held meanwhile.
        policy.advance(t)
        _play_block(env, policy, rngs, t, end - t + 1, res, on_round)
        t = end + 1
    res.cum_expected_regret = np.cumsum(res.expected_regret)
    res.fits = policy.fits
    res.triggered = not policy.safe
    res.fallback_epoch = policy.safe_epoch
    return res


def _play_block(env, policy, rngs, t0: int, n: int, res: RunResult,
                on_round: Optional[Callable]) -> None:
    """Rounds t0 .. t0 + n - 1 of one epoch, written into res's columns.

    After a monitor trigger the rest of the block is played again with the
    fallback kernel, on the contexts, noise and action uniforms already
    drawn: each stream spends one draw per round whatever the kernel.
    """
    rounds = env.sample_rounds(rngs[0], rngs[1], t0, n)
    u = rngs[2].random(n)
    i = 0
    while i < n:
        rest = rounds.tail(i)
        play = policy.act_block(t0 + i, rest.contexts, u[i:])
        reward = rest.rewards(play.actions)
        was_safe = policy.safe
        k = policy.record_block(t0 + i, rest.contexts, play.actions, play.probs, reward)
        if was_safe and not policy.safe:
            res.trigger_round = t0 + i + k - 1
        rows = slice(t0 - 1 + i, t0 - 1 + i + k)
        actions = play.actions[:k]
        res.epoch[rows] = play.epoch
        res.safe[rows] = 1 if play.safe else 0
        res.gamma[rows] = play.gamma
        res.action[rows] = actions
        res.propensity[rows] = play.probs[np.arange(k), actions - 1]
        res.reward[rows] = reward[:k]
        res.expected_regret[rows] = rest.expected_regrets(actions)
        if on_round is not None:
            for j in range(k):
                on_round(t=t0 + i + j, round_=rest.row(j), action=int(actions[j]),
                         dist=ActionDistribution(play.probs[j]), info=play.info(j))
        i += k


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


def _prepare(config: RunConfig, dirs: Sequence) -> int:
    """The worker count, and dirs created, before any seed runs: a bad
    HTE_BANDIT_THREADS or an output directory that cannot be created is a
    configuration error, reported before anything is simulated or written."""
    workers = _worker_count(len(config.seeds))
    for d in dirs:
        try:
            Path(d).mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"cannot create output directory {d}: {e}") from e
    return workers


def run_seeds(config: RunConfig, workers: int) -> List[RunResult]:
    seeds = list(config.seeds)
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
    workers = _prepare(config, [config.output_dir] if write else [])
    results = run_seeds(config, workers)
    curve = aggregate_curve(results)
    if write:
        out = Path(config.output_dir)
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
    if write:
        _prepare(config, [out] + [sub.output_dir for sub in subs])
    results: Dict[str, ExperimentResult] = {
        sub.algorithm: run_experiment(sub, write=write) for sub in subs}

    if write:
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
