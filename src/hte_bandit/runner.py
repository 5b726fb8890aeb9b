"""Experiment driver: seeded runs, CSV/SVG emission, paired comparisons.

Per seed, the environment draws (contexts, noise, ground truth) come from
streams that never see policy randomness, so every algorithm replays the
identical reward landscape and comparisons are paired.  Every (config,
seed) job of one command shares one process pool, or runs in this process
on one worker.  A writing job streams its own run_*.csv under a .part name
and sends back only its cumulative-regret column; the coordinating process
renames a config's files into place in seed order once its seeds are in
and writes the curve and SVG, which keeps repeated invocations
byte-identical regardless of the worker count (capped by
HTE_BANDIT_THREADS).
"""

from __future__ import annotations

import contextlib
import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

from .config import ConfigError, RunConfig
from .core import (STREAM_ACTION, STREAM_CONTEXT, STREAM_NOISE, rng_stream,
                   row_max, row_min)
from .environments import build_environment
from .policy import FitRecord
from .svg import Series, write_chart

RUN_HEADER = "t,epoch,safe,gamma,action,propensity,reward,expected_regret,cum_expected_regret"
CURVE_HEADER = "t,mean_cum_regret,std_cum_regret"
COMPARE_HEADER = "algorithm,final_mean_cum_regret,final_std_cum_regret,ratio_vs_first"

# Rows of a CSV formatted at once: _write_csv holds one slice's cells at a time.
CSV_SLICE_ROWS = 1 << 15


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
    # Over the rounds played: max of sum_a p(a)(s_max - s_a) - K / gamma, and
    # min of p(a_t) - 1 / (K + gamma * (s_max - s_min)), the kernel floor margin.
    max_regret_slack: float = -np.inf
    min_floor_margin: float = np.inf


@dataclass
class RegretCurve:
    t: np.ndarray
    mean: np.ndarray
    std: np.ndarray

    def final_mean(self) -> float:
        return float(self.mean[-1]) if self.t.size else 0.0

    def final_std(self) -> float:
        return float(self.std[-1]) if self.t.size else 0.0


@dataclass
class ExperimentResult:
    config: RunConfig
    results: List[RunResult]
    curve: RegretCurve


def run_single(config: RunConfig, seed: int) -> RunResult:
    """One seeded trajectory of the configured algorithm, simulated one
    epoch block at a time."""
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
        _play_block(env, policy, rngs, t, end - t + 1, res)
        t = end + 1
    res.cum_expected_regret = np.cumsum(res.expected_regret)
    res.fits = policy.fits
    res.triggered = not policy.safe
    res.fallback_epoch = policy.safe_epoch
    return res


def _play_block(env, policy, rngs, t0: int, n: int, res: RunResult) -> None:
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
        S, P, gamma = play.scores[:k], play.probs[:k], play.gamma
        K, top = S.shape[1], row_max(S)
        propensity = P[np.arange(k), actions - 1]
        res.epoch[rows] = play.epoch
        res.safe[rows] = 1 if play.safe else 0
        res.gamma[rows] = play.gamma
        res.action[rows] = actions
        res.propensity[rows] = propensity
        res.reward[rows] = reward[:k]
        res.expected_regret[rows] = rest.expected_regrets(actions)
        res.max_regret_slack = max(res.max_regret_slack, float(
            ((P * (top[:, None] - S)).sum(axis=1) - K / gamma).max()))
        res.min_floor_margin = min(res.min_floor_margin, float(
            (propensity - 1.0 / (K + gamma * (top - row_min(S)))).min()))
        i += k


def aggregate_curve(t: np.ndarray, regrets: Sequence[np.ndarray]) -> RegretCurve:
    """Mean and std over seeds of the cum_expected_regret columns, at rounds t."""
    if not regrets or t.size == 0:
        empty = np.array([])
        return RegretCurve(empty, empty, empty)
    per_seed = np.stack(regrets)
    return RegretCurve(t, per_seed.mean(axis=0), per_seed.std(axis=0))


def _worker_count(jobs: int) -> int:
    cap = os.environ.get("HTE_BANDIT_THREADS")
    try:
        limit = int(cap) if cap else (os.cpu_count() or 1)
    except ValueError:
        raise ConfigError(f"HTE_BANDIT_THREADS must be an integer, got {cap!r}") from None
    return max(1, min(jobs, os.cpu_count() or 1, limit))


# -- file emission -----------------------------------------------------------

def _cells(c: np.ndarray) -> list:
    """The CSV cells of one nonempty column slice, formatted by its dtype:
    repr (the shortest round-trip form) for floats, str for anything else.
    A numeric column formats one cell per run of consecutive equal values
    and repeats it over the run; runs are found on the values' bits, so 0.0
    and -0.0, or two NaN payloads, are never merged."""
    fmt = repr if c.dtype.kind == "f" else str
    if c.dtype.kind not in "biuf":
        return list(map(fmt, c.tolist()))
    bits = c.view(f"u{c.itemsize}")
    start = np.empty(c.size, dtype=bool)
    start[0] = True
    np.not_equal(bits[1:], bits[:-1], out=start[1:])
    cells = np.array(list(map(fmt, c[start].tolist())), dtype=object)
    return cells[np.cumsum(start) - 1].tolist()


def _write_csv(path, header: str, cols) -> None:
    """Write one CSV line per row of cols, each column formatted by _cells.
    Rows are formatted and written CSV_SLICE_ROWS at a time, so only one
    slice's cells and text are held at once."""
    cols = [np.asarray(c) for c in cols]
    with open(path, "w", encoding="utf-8") as f:
        f.write(header + "\n")
        for lo in range(0, len(cols[0]), CSV_SLICE_ROWS):
            cells = (_cells(c[lo:lo + CSV_SLICE_ROWS]) for c in cols)
            f.write("\n".join(map(",".join, zip(*cells))))
            f.write("\n")


def write_run_csv(path, result: RunResult) -> None:
    _write_csv(path, RUN_HEADER, [getattr(result, c) for c in RUN_HEADER.split(",")])


def write_curve_csv(path, curve: RegretCurve) -> None:
    _write_csv(path, CURVE_HEADER, (curve.t, curve.mean, curve.std))


def _part(config: RunConfig, seed: int) -> Path:
    return Path(config.output_dir) / f"run_{seed}.csv.part"


def _job(config: RunConfig, seed: int, write: bool):
    """One (config, seed) job.  Without write it returns the run; with write
    it streams the run's run_*.csv to its .part file in the process that
    simulated it and returns only the cum_expected_regret column.
    run_single and write_run_csv are looked up at call time, so a patched
    one sees every job."""
    result = run_single(config, seed)
    if not write:
        return result
    write_run_csv(_part(config, seed), result)
    return result.cum_expected_regret


def _experiments(configs: Sequence[RunConfig],
                 write: bool) -> List[ExperimentResult]:
    """Every (config, seed) job on one pool, config-major and in seed order.
    Each config is aggregated as soon as its seeds are in, while later
    configs still run.  With write, it then renames its run_*.csv.part
    files into place in seed order and writes its curve.csv and curve.svg,
    and its ExperimentResult holds no RunResult (results == []).  If
    anything raises (SystemExit too, which the CLI makes of SIGTERM), the
    pool cancels its jobs not yet started and waits for the running ones,
    and then every .part file of this call is removed, so the disk holds
    exactly the files of every config finished before the failure.

    The worker count and the output directories come first: a bad
    HTE_BANDIT_THREADS or a directory that cannot be created is a
    configuration error, reported before anything is simulated or written.
    """
    cfgs = [c for c in configs for _ in c.seeds]
    seeds = [s for c in configs for s in c.seeds]
    workers = _worker_count(len(seeds))
    for d in [c.output_dir for c in configs] if write else []:
        try:
            Path(d).mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"cannot create output directory {d}: {e}") from e
    experiments = []
    with (ProcessPoolExecutor(max_workers=workers) if workers > 1
          else contextlib.nullcontext()) as pool:
        try:
            jobs = (pool.map if pool else map)(_job, cfgs, seeds, itertools.repeat(write))
            for config in configs:
                done = [next(jobs) for _ in config.seeds]
                if not write:
                    curve = aggregate_curve(done[0].t, [r.cum_expected_regret for r in done])
                    experiments.append(ExperimentResult(config, done, curve))
                    continue
                curve = aggregate_curve(np.arange(1, config.horizon + 1), done)
                out = Path(config.output_dir)
                for s in config.seeds:
                    _part(config, s).replace(out / f"run_{s}.csv")
                write_curve_csv(out / "curve.csv", curve)
                series = [Series(config.algorithm, curve.t, curve.mean, curve.std)]
                write_chart(out / "curve.svg", series,
                            title=f"{config.scenario}: cumulative expected regret",
                            x_label="round", y_label="cumulative regret")
                experiments.append(ExperimentResult(config, [], curve))
        except BaseException:
            # No job writes once the pool has shut down.
            if pool:
                pool.shutdown(cancel_futures=True)
            for c, s in zip(cfgs, seeds) if write else ():
                _part(c, s).unlink(missing_ok=True)
            raise
    return experiments


def run_experiment(config: RunConfig, write: bool = True) -> ExperimentResult:
    """Run every seed, aggregate, and (optionally) emit CSV + SVG artifacts."""
    return _experiments([config], write)[0]


def compare(config: RunConfig, algorithms: Sequence[str]) -> Dict[str, ExperimentResult]:
    """Paired comparison: same environment seeds, one run set per algorithm,
    every run on one pool; writes each run set under output_dir/<algorithm>/
    and compare.csv / compare.svg beside them."""
    if not algorithms:
        raise ConfigError("empty algorithm list")
    if len(set(algorithms)) != len(algorithms):
        raise ConfigError("algorithms must be distinct")
    out = Path(config.output_dir)
    # Validate every configuration before any run starts or writes a file.
    subs = [replace(config, algorithm=algo, output_dir=str(out / algo)).validate()
            for algo in algorithms]
    results = dict(zip(algorithms, _experiments(subs, True)))
    mean = np.array([results[a].curve.final_mean() for a in algorithms])
    std = np.array([results[a].curve.final_std() for a in algorithms])
    ratio = mean / mean[0] if mean[0] != 0 else np.full(mean.size, np.nan)
    _write_csv(out / "compare.csv", COMPARE_HEADER, (algorithms, mean, std, ratio))
    series = [Series(a, results[a].curve.t, results[a].curve.mean,
                     results[a].curve.std) for a in algorithms]
    write_chart(out / "compare.svg", series,
                title=f"{config.scenario}: algorithm comparison",
                x_label="round", y_label="cumulative regret")
    return results


def implicit_regret_sweep(config: RunConfig, seed: int) -> float:
    """Max over the rounds of one run of sum_a p(a)(s_max - s_a) - K / gamma.
    The kernel keeps it <= 0 up to float error; callers allow a small tolerance."""
    return run_single(config, seed).max_regret_slack
