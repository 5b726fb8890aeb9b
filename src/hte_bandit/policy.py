"""Inverse-gap-weighted policies with epoch schedules and a safety monitor.

The live algorithm keeps one deployed kernel (model, gamma) per epoch.
While the misspecification check passes, each epoch boundary refits the
model on that epoch's data only and raises gamma according to the
estimation rate of the model class.  If the check ever fails, the policy
permanently falls back to the historical kernel whose epoch carries the
best reward lower bound.

Algorithms:

hte_igw      R-loss oracle (cross-fitted nuisance), per-arm-intercept map
igw          squared-error reward oracle, shared-intercept map
mod_hte_igw  lasso R-loss oracle; exploration rate driven by fitted sparsity
mod_igw      lasso reward oracle, same sparsity-driven rate
uniform      fixed uniform kernel, no fitting, no monitoring
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .core import (ActionDistribution, EpochSchedule, LoggedSample, SampleBatch,
                   arm_block_map, inverse_cdf, shared_intercept_map)
from .oracle import (LinearModel, cross_fit_mu, estimation_rate,
                     fit_rloss, fit_rloss_lasso, fit_squared_error,
                     fit_squared_error_lasso, zero_model)

# Each fitting algorithm's oracle as (rloss, lasso): the R-loss objective on
# cross-fitted residuals or squared error on raw rewards, under a lasso
# penalty or a ridge one.
ORACLES = {"hte_igw": (True, False), "igw": (False, False),
           "mod_hte_igw": (True, True), "mod_igw": (False, True)}
ALGORITHMS = (*ORACLES, "uniform")

GAMMA_COEF = math.sqrt(1.0 / 8.0)
HASH_CHUNK_BYTES = 1 << 20


def igw_kernel(scores: np.ndarray, gamma: float | np.ndarray):
    """Action distribution p(a) = 1 / (K + gamma * (s_max - s_a)), a != argmax,
    with the remainder on the argmax (lowest index on ties).

    The leader keeps at least 1/K probability and every action keeps at
    least 1 / (K + gamma * max_gap) > 0.  An (n, K) block of score rows, with
    one float gamma or an (n,) array of one gamma per row, gives the (n, K)
    array of kernel rows.  A (K,) score vector and a float gamma are the
    block of one row, returned as an ActionDistribution.
    """
    s = np.asarray(scores, dtype=float)
    if s.ndim not in (1, 2) or s.shape[-1] < 2:
        raise ValueError("scores must be a vector, or rows, over at least two actions")
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    if isinstance(gamma, np.ndarray) and gamma.ndim:
        if not (s.ndim == 2 and gamma.shape == (len(s),)
                and ((gamma > 0) & (gamma < math.inf)).all()):
            raise ValueError("gamma must be one positive finite real per score row")
        gamma = gamma[:, None]
    elif not (math.isfinite(gamma) and gamma > 0):
        raise ValueError("gamma must be a positive finite real")
    S = s.reshape(-1, s.shape[-1])
    n, K = S.shape
    P = 1.0 / (K + gamma * (S.max(axis=1, keepdims=True) - S))
    lead = S.argmax(axis=1) + np.arange(0, n * K, K)   # flat positions in P
    flat = P.reshape(-1)
    flat[lead] = 0.0
    flat[lead] = 1.0 - P.sum(axis=1)
    return ActionDistribution.trusted(P[0]) if s.ndim == 1 else P


def gamma_schedule(prev_epoch_len: int, next_epoch: int, delta_prime: float,
                   num_actions: int,
                   rate_fn: Callable[[int, float], float]) -> float:
    """Exploration rate for the next epoch, floored at 1.

    gamma = sqrt(1/8) * sqrt(K / xi(n_prev, delta' / m^2)) where m is the
    epoch about to start and n_prev the batch size behind its model.
    """
    if prev_epoch_len < 1:
        raise ValueError("previous epoch length must be positive")
    if next_epoch < 2:
        raise ValueError("the first scheduled gamma update starts epoch 2")
    if not 0.0 < delta_prime < 1.0:
        raise ValueError("delta_prime must lie in (0, 1)")
    zeta = delta_prime / (next_epoch * next_epoch)
    xi = rate_fn(prev_epoch_len, zeta)
    if not 0.0 < xi <= 1.0:
        raise ValueError(f"rate function returned {xi!r}, expected (0, 1]")
    gamma = max(1.0, GAMMA_COEF * math.sqrt(num_actions / xi))
    if not math.isfinite(gamma):
        raise ValueError(f"gamma overflows at rate {xi!r}")
    return gamma


class SafetyMonitor:
    """Per-epoch reward statistics with anytime Hoeffding lower bounds.

    Epoch j with n_j samples and mean reward m_j gets, at round t,
    L_j = m_j - (r_hi - r_lo) * sqrt(log(4 j^2 t^2 / delta) / (2 n_j)).
    The test fails when the current epoch's mean *plus* its own width
    drops below the best completed-epoch lower bound.
    """

    def __init__(self, r_lo: float, r_hi: float, n_min: int = 32):
        if not (r_hi > r_lo and math.isfinite(r_hi - r_lo)):
            raise ValueError("reward range must be finite and nondegenerate")
        if n_min < 1:
            raise ValueError("n_min must be positive")
        self.r_lo = r_lo
        self.r_hi = r_hi
        self.n_min = n_min
        self.counts: List[int] = []
        self.sums: List[float] = []

    def _running_sums(self, epoch: int, rewards) -> np.ndarray:
        """Epoch's reward sum after each of rewards is added, in order
        (np.cumsum adds sequentially, as one += per round does)."""
        r = np.asarray(rewards, dtype=float).reshape(-1)
        outside = ~((self.r_lo <= r) & (r <= self.r_hi))
        if outside.any():
            raise ValueError(f"reward {float(r[outside.argmax()])!r} outside "
                             f"[{self.r_lo}, {self.r_hi}]")
        while len(self.counts) < epoch:
            self.counts.append(0)
            self.sums.append(0.0)
        return np.cumsum(np.concatenate(([self.sums[epoch - 1]], r)))[1:]

    def record(self, epoch: int, rewards) -> None:
        """Add one reward, or an array of rewards in round order, to epoch."""
        running = self._running_sums(epoch, rewards)
        if running.size:
            self.counts[epoch - 1] += running.size
            self.sums[epoch - 1] = float(running[-1])

    def record_until_trigger(self, t0: int, epoch: int, delta: float,
                             rewards: np.ndarray) -> Tuple[int, int]:
        """Record the rewards of rounds t0, t0 + 1, ... of epoch, checking
        after each one, and stop after the first round that fails.

        Returns (rounds recorded, fallback epoch), the epoch being 0 when no
        round failed.
        """
        running = self._running_sums(epoch, rewards)
        n = running.size
        c0 = self.counts[epoch - 1]
        fails, best = self._failures(np.arange(t0, t0 + n), epoch, delta,
                                     c0 + np.arange(1, n + 1), running)
        failed = fails.any()
        k = int(fails.argmax()) + 1 if failed else n
        if k:
            self.counts[epoch - 1] = c0 + k
            self.sums[epoch - 1] = float(running[k - 1])
        return k, int(best[k - 1]) if failed else 0

    def _failures(self, t, epoch, delta, counts, running) -> Tuple[np.ndarray, np.ndarray]:
        """The test at rounds t (n,) of epoch, whose sample counts and reward
        sums after each round are counts and running: per round, whether it
        fails, and the completed epoch with the largest lower bound (the
        first on ties; 0 when no completed epoch has n_min samples)."""
        bench = [j for j in range(1, min(epoch, len(self.counts) + 1))
                 if self.counts[j - 1] >= self.n_min]
        if not bench:
            return np.zeros(t.shape, dtype=bool), np.zeros(t.shape, dtype=int)
        j = np.array(bench)[:, None]
        n_j = np.array([self.counts[i - 1] for i in bench])[:, None]
        mean_j = np.array([self.sums[i - 1] for i in bench])[:, None] / n_j
        R = self.r_hi - self.r_lo
        lower = mean_j - R * np.sqrt(np.log(4.0 * j * j * t * t / delta) / (2.0 * n_j))
        upper = running / counts + R * np.sqrt(
            np.log(4.0 * epoch * epoch * t * t / delta) / (2.0 * counts))
        return upper < lower.max(axis=0), j[lower.argmax(axis=0), 0]

    def check(self, t: int, current_epoch: int, delta: float) -> Tuple[bool, int]:
        """Returns (still_safe, best_epoch) after round t, the one-round case
        of record_until_trigger.  best_epoch is meaningful only on failure:
        the completed epoch with the largest lower bound."""
        if current_epoch > len(self.counts) or self.counts[current_epoch - 1] < 1:
            return True, 0
        fails, best = self._failures(
            np.array([t]), current_epoch, delta,
            np.array([self.counts[current_epoch - 1]]),
            np.array([self.sums[current_epoch - 1]]))
        return (False, int(best[0])) if fails[0] else (True, 0)


@dataclass
class FitRecord:
    """Audit record of one epoch-boundary refit; model is the one deployed
    in kernels[data_epoch + 1]."""

    data_epoch: int
    n: int
    model: LinearModel
    gamma_next: float
    data_hash: str
    nuisance_fallback: bool = False


def _hash_batch(samples: Sequence[LoggedSample]) -> str:
    """sha256 of the packed rows (x f8[d], a <u4, p f8[K], r f8), hashed in
    chunks of at most HASH_CHUNK_BYTES so no copy of the whole batch is made."""
    b = SampleBatch.of(samples)
    h = hashlib.sha256()
    n = len(b)
    if n == 0:
        return h.hexdigest()
    row = np.dtype([("x", "<f8", b.X.shape[1:]), ("a", "<u4"),
                    ("p", "<f8", b.P.shape[1:]), ("r", "<f8")])
    step = max(1, HASH_CHUNK_BYTES // row.itemsize)
    for i in range(0, n, step):
        chunk = np.empty(min(step, n - i), dtype=row)
        chunk["x"], chunk["a"] = b.X[i:i + step], b.A[i:i + step]
        chunk["p"], chunk["r"] = b.P[i:i + step], b.r[i:i + step]
        h.update(chunk)
    return h.hexdigest()


@dataclass
class Play:
    """Rounds played under one kernel: its epoch, gamma and safety flag,
    and per round the scores, the action distribution and the action."""

    epoch: int
    gamma: float
    safe: bool
    scores: np.ndarray    # (n, K)
    probs: np.ndarray     # (n, K)
    actions: np.ndarray   # (n,) in 1..K


class Policy:
    """Epoch-scheduled IGW policy over one of the ALGORITHMS.

    Rounds are played in blocks that lie inside one epoch (act_block, then
    record_block); act and record are the one-round case of the same code.
    """

    def __init__(self, algorithm: str, d: int, num_actions: int,
                 schedule: EpochSchedule, delta: float = 0.05, *, seed: int = 0,
                 ridge_scale: float = 1e-6, num_folds: int = 2,
                 rate_const: float = 1.0, lasso_const: float = 1.0,
                 n_min: int = 32, reward_range: Tuple[float, float] = (0.0, 1.0)):
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}")
        if not 0.0 < delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if num_folds < 2:
            raise ValueError("need at least two cross-fitting folds")
        if not (ridge_scale >= 0 and lasso_const >= 0):
            raise ValueError("ridge_scale and lasso_const must be nonnegative")
        if not rate_const > 0:
            raise ValueError("rate_const must be positive")
        self.algorithm = algorithm
        self.num_actions = num_actions
        self.schedule = schedule
        self.delta = delta
        self.delta_prime = delta / 2.0
        self.seed = seed
        self.ridge_scale = ridge_scale
        self.num_folds = num_folds
        self.rate_const = rate_const
        self.lasso_const = lasso_const
        self.reward_range = reward_range
        self.rloss, self.lasso = ORACLES.get(algorithm, (False, False))

        # The effect oracle gets per-arm intercepts (between-arm constants are
        # part of the effect); the reward oracle shares one intercept across
        # arms, so constants common to all arms never masquerade as gaps.
        if self.rloss:
            self.feature_map = arm_block_map(d, num_actions)
        else:
            self.feature_map = shared_intercept_map(d, num_actions)

        self.epoch = 1
        # Deployed (model, gamma) per epoch; while safe, epoch m plays kernels[m].
        self.kernels: Dict[int, Tuple[LinearModel, float]] = {
            1: (zero_model(self.feature_map), 1.0)}
        self.safe = True
        self.safe_epoch = 0
        self.monitor = SafetyMonitor(reward_range[0], reward_range[1], n_min)
        self.buffer: List[SampleBatch] = []   # this epoch's logged rounds
        self.fits: List[FitRecord] = []

    # -- round loop ---------------------------------------------------------

    def advance(self, t: int) -> None:
        """Finish every epoch before the one holding round t."""
        m = self.schedule.epoch_of(t)
        while self.epoch < m:
            self._finish_epoch()

    def act_block(self, t0: int, contexts: np.ndarray, u: np.ndarray) -> Play:
        """Play rounds t0 .. t0 + n - 1, which must lie in one epoch, on
        (n, d) contexts: advance the epoch clock to t0, then draw each
        action by inverse CDF from its uniform u (n,)."""
        n = u.shape[0]
        self.advance(t0)
        if n > 1 and self.schedule.epoch_of(t0 + n - 1) != self.epoch:
            raise ValueError("a block of rounds must lie inside one epoch")
        K = self.num_actions
        if self.algorithm == "uniform":
            gamma = 1.0
            scores = np.zeros((n, K))
            probs = np.full((n, K), 1.0 / K)
        else:
            model, gamma = self.kernels[self.epoch if self.safe else self.safe_epoch]
            scores = model.predict(contexts)
            probs = igw_kernel(scores, gamma)
        return Play(self.epoch, gamma, self.safe, scores, probs,
                    inverse_cdf(probs, u))

    def record_block(self, t0: int, contexts: np.ndarray, actions: np.ndarray,
                     probs: np.ndarray, rewards: np.ndarray) -> int:
        """Log rounds t0 .. t0 + n - 1.  While safe, each round joins the
        epoch buffer and the monitor checks it; recording stops after the
        first round that fails.  Returns the rounds recorded: n, or fewer
        after a trigger, when the rest must be played again (act_block) on
        the fallback kernel."""
        r = np.asarray(rewards, dtype=float)
        if self.algorithm == "uniform" or not self.safe or r.size == 0:
            # Logging only (the monitor checks the reward range): uniform
            # never tests, and after a trigger the test never runs again.
            self.monitor.record(self.epoch, r)
            return r.size
        k, fallback = self.monitor.record_until_trigger(t0, self.epoch, self.delta, r)
        self.buffer.append(SampleBatch(contexts[:k], actions[:k], probs[:k], r[:k]))
        if fallback:
            self.safe = False
            self.safe_epoch = fallback
        return k

    def act(self, t: int, context: np.ndarray,
            rng: np.random.Generator) -> Tuple[int, ActionDistribution, dict]:
        """Advance the epoch clock to t, then sample an action."""
        u = np.array([rng.random()])
        play = self.act_block(t, np.asarray(context, dtype=float)[None, :], u)
        info = {"epoch": play.epoch, "gamma": play.gamma, "safe": play.safe,
                "scores": play.scores[0]}
        return int(play.actions[0]), ActionDistribution(play.probs[0]), info

    def record(self, t: int, context: np.ndarray, action: int,
               dist: ActionDistribution, reward: float) -> None:
        self.record_block(t, np.array(context, dtype=float)[None, :],
                          np.array([action]), dist.probs[None, :], np.array([reward]))

    # -- epoch boundary -----------------------------------------------------

    def _finish_epoch(self) -> None:
        m = self.epoch
        if self.algorithm != "uniform" and self.safe and self.buffer:
            self._refit(m)
        elif self.algorithm != "uniform" and self.safe:
            # Empty epoch: carry the old kernel forward unchanged.
            self.kernels[m + 1] = self.kernels[m]
        self.buffer = []
        self.epoch = m + 1

    def _refit(self, m: int) -> None:
        batch = SampleBatch.concat(self.buffer)
        n = len(batch)
        fitted, fallback = batch, False
        if self.rloss:
            est, fitted = cross_fit_mu(batch, self.num_folds,
                                       ridge=self.ridge_scale * n,
                                       reward_range=self.reward_range,
                                       fold_seed=self.seed * 100_003 + m)
            fallback = est.fallback
        # The fits are looked up here, at call time, so that a wrapped module
        # attribute is the one called.
        if self.lasso:
            fit = fit_rloss_lasso if self.rloss else fit_squared_error_lasso
            model = fit(fitted, self.feature_map, lam="auto", scale=self.lasso_const)
        else:
            fit = fit_rloss if self.rloss else fit_squared_error
            model = fit(fitted, self.feature_map, ridge=self.ridge_scale * n)
        gamma = self._gamma(n, m + 1, model.sparsity)

        self.kernels[m + 1] = (model, gamma)
        self.fits.append(FitRecord(
            data_epoch=m, n=n, model=model, gamma_next=gamma,
            data_hash=_hash_batch(batch), nuisance_fallback=fallback))

    def _gamma(self, n: int, m: int, sparsity: int) -> float:
        """gamma for epoch m from a model fitted on n rounds: the rate's
        dimension is max(sparsity, 1) for a lasso fit, feature_dim for a
        ridge fit."""
        dim = max(sparsity, 1) if self.lasso else self.feature_map.feature_dim
        rate_fn = lambda nn, zeta: estimation_rate(nn, zeta, dim, self.rate_const)
        return gamma_schedule(n, m, self.delta_prime, self.num_actions, rate_fn)

    def check_horizon(self, horizon: int) -> None:
        """Raise ValueError unless every round up to horizon lies in an epoch
        of the schedule and every refit within horizon rounds gets a finite
        gamma.  The rate bound shrinks as n grows and grows with m and the
        dimension, so no epoch has a smaller rate than the first update
        (m = 2) on n = horizon rounds at the smallest dimension; and no
        epoch has a smaller confidence delta' / m^2 than the last one.

        Also raise unless the safety monitor's log argument 4 m^2 t^2 / delta,
        largest at the last epoch and round, is finite: past the float range
        every bound of the monitor is infinite and it can never trigger."""
        if horizon < 1:
            return
        last = self.schedule.epoch_of(horizon)
        if self.algorithm == "uniform":
            return
        if not math.isfinite(4.0 * last * last * horizon * horizon / self.delta):
            raise ValueError(
                f"the safety monitor's confidence term 4 m^2 t^2 / delta overflows "
                f"at epoch {last} of horizon {horizon} (delta {self.delta!r})")
        for m in (2, max(last, 2)):
            try:
                self._gamma(horizon, m, 0)
            except ValueError as e:
                raise ValueError(
                    f"the gamma schedule fails at epoch {m} of horizon {horizon} "
                    f"(delta {self.delta!r}, rate_const {self.rate_const!r}): {e}") from e
