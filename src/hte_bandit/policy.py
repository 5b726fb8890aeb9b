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
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .core import (ActionDistribution, EpochSchedule, FeatureMap, LoggedSample,
                   arm_block_map, shared_intercept_map)
from .oracle import (LinearModel, cross_fit_mu, estimation_rate,
                     fit_rloss, fit_rloss_lasso, fit_squared_error,
                     fit_squared_error_lasso, zero_model)

ALGORITHMS = ("hte_igw", "igw", "mod_hte_igw", "mod_igw", "uniform")

GAMMA_COEF = math.sqrt(1.0 / 8.0)


def igw_kernel(scores: np.ndarray, gamma: float) -> ActionDistribution:
    """Action distribution p(a) = 1 / (K + gamma * (s_max - s_a)), a != argmax,
    with the remainder on the argmax (lowest index on ties).

    The leader keeps at least 1/K probability and every action keeps at
    least 1 / (K + gamma * max_gap) > 0.
    """
    s = np.asarray(scores, dtype=float)
    if s.ndim != 1 or s.size < 2:
        raise ValueError("scores must be a vector over at least two actions")
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError("gamma must be a positive finite real")
    K = s.size
    ahat = int(s.argmax())
    p = 1.0 / (K + gamma * (s[ahat] - s))
    p[ahat] = 0.0
    p[ahat] = 1.0 - p.sum()
    return ActionDistribution(p)


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
    return max(1.0, GAMMA_COEF * math.sqrt(num_actions / xi))


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

    def record(self, epoch: int, reward: float) -> None:
        if not self.r_lo <= reward <= self.r_hi:
            raise ValueError(f"reward {reward!r} outside [{self.r_lo}, {self.r_hi}]")
        while len(self.counts) < epoch:
            self.counts.append(0)
            self.sums.append(0.0)
        self.counts[epoch - 1] += 1
        self.sums[epoch - 1] += reward

    def width(self, epoch: int, n: int, t: int, delta: float) -> float:
        arg = math.log(4.0 * epoch * epoch * t * t / delta)
        return (self.r_hi - self.r_lo) * math.sqrt(arg / (2.0 * n))

    def lower_bound(self, epoch: int, t: int, delta: float) -> float:
        n = self.counts[epoch - 1]
        return self.sums[epoch - 1] / n - self.width(epoch, n, t, delta)

    def check(self, t: int, current_epoch: int, delta: float) -> Tuple[bool, int]:
        """Returns (still_safe, best_epoch).  best_epoch is meaningful only
        on failure: the completed epoch with the largest lower bound."""
        best, best_epoch = -math.inf, 0
        for j in range(1, min(current_epoch, len(self.counts) + 1)):
            if self.counts[j - 1] >= self.n_min:
                lb = self.lower_bound(j, t, delta)
                if lb > best:
                    best, best_epoch = lb, j
        if best_epoch == 0:
            return True, 0
        if current_epoch > len(self.counts) or self.counts[current_epoch - 1] < 1:
            return True, 0
        n = self.counts[current_epoch - 1]
        mean = self.sums[current_epoch - 1] / n
        if mean + self.width(current_epoch, n, t, delta) < best:
            return False, best_epoch
        return True, 0


@dataclass
class FitRecord:
    """Audit record of one epoch-boundary refit."""

    data_epoch: int
    n: int
    sparsity: int
    active_context: int
    gamma_next: float
    data_hash: str
    nuisance_fallback: bool = False
    samples: Optional[List[LoggedSample]] = None


def _hash_batch(samples: List[LoggedSample]) -> str:
    h = hashlib.sha256()
    for s in samples:
        h.update(s.context.tobytes())
        h.update(s.action.to_bytes(4, "little"))
        h.update(s.propensities.probs.tobytes())
        h.update(np.float64(s.reward).tobytes())
    return h.hexdigest()


class Policy:
    """Epoch-scheduled IGW policy over one of the ALGORITHMS."""

    def __init__(self, algorithm: str, d: int, num_actions: int,
                 schedule: EpochSchedule, delta: float = 0.05, *, seed: int = 0,
                 ridge_scale: float = 1e-6, num_folds: int = 2,
                 rate_const: float = 1.0, lasso_const: float = 1.0,
                 n_min: int = 32, reward_range: Tuple[float, float] = (0.0, 1.0),
                 keep_fit_inputs: bool = False):
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
        self.keep_fit_inputs = keep_fit_inputs

        # The effect oracle gets per-arm intercepts (between-arm constants are
        # part of the effect); the reward oracle shares one intercept across
        # arms, so constants common to all arms never masquerade as gaps.
        if algorithm in ("hte_igw", "mod_hte_igw"):
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
        self.buffer: List[LoggedSample] = []
        self.fits: List[FitRecord] = []

    # -- round loop ---------------------------------------------------------

    def act(self, t: int, context: np.ndarray,
            rng: np.random.Generator) -> Tuple[int, ActionDistribution, dict]:
        """Advance the epoch clock to t, then sample an action."""
        m = self.schedule.epoch_of(t)
        while self.epoch < m:
            self._finish_epoch()
        if self.algorithm == "uniform":
            dist = ActionDistribution(np.full(self.num_actions, 1.0 / self.num_actions))
            scores = np.zeros(self.num_actions)
            gamma_used = 1.0
        else:
            model, gamma_used = self.kernels[self.epoch if self.safe else self.safe_epoch]
            scores = model.predict(context)
            dist = igw_kernel(scores, gamma_used)
        action = dist.sample(rng)
        info = {"epoch": self.epoch, "gamma": gamma_used, "safe": self.safe,
                "scores": scores}
        return action, dist, info

    def record(self, t: int, context: np.ndarray, action: int,
               dist: ActionDistribution, reward: float) -> None:
        if not self.reward_range[0] <= reward <= self.reward_range[1]:
            raise ValueError(f"reward {reward!r} outside declared range "
                             f"{self.reward_range}")
        if self.algorithm == "uniform":
            return
        # Rewards keep accumulating even after a trigger (logging only);
        # the test itself never runs again once safe is False.
        self.monitor.record(self.epoch, reward)
        if not self.safe:
            return
        self.buffer.append(LoggedSample(context=np.array(context, dtype=float),
                                        action=action, propensities=dist,
                                        reward=reward))
        ok, m_hat = self.monitor.check(t, self.epoch, self.delta)
        if not ok:
            self.safe = False
            self.safe_epoch = m_hat

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
        batch = self.buffer
        n = len(batch)
        fallback = False
        if self.algorithm in ("hte_igw", "mod_hte_igw"):
            est, fitted = cross_fit_mu(batch, self.num_folds,
                                       ridge=self.ridge_scale * n,
                                       reward_range=self.reward_range,
                                       fold_seed=self.seed * 100_003 + m)
            fallback = est.fallback
            if self.algorithm == "hte_igw":
                model = fit_rloss(fitted, self.feature_map, ridge=self.ridge_scale * n)
            else:
                model = fit_rloss_lasso(fitted, self.feature_map, lam="auto",
                                        scale=self.lasso_const)
        elif self.algorithm == "igw":
            model = fit_squared_error(batch, self.feature_map,
                                      ridge=self.ridge_scale * n)
        else:  # mod_igw
            model = fit_squared_error_lasso(batch, self.feature_map, lam="auto",
                                            scale=self.lasso_const)

        if self.algorithm in ("mod_hte_igw", "mod_igw"):
            dim = max(model.sparsity, 1)
        else:
            dim = self.feature_map.feature_dim
        rate_fn = lambda nn, zeta: estimation_rate(nn, zeta, dim, self.rate_const)
        gamma = gamma_schedule(n, m + 1, self.delta_prime, self.num_actions, rate_fn)

        self.kernels[m + 1] = (model, gamma)
        self.fits.append(FitRecord(
            data_epoch=m, n=n, sparsity=model.sparsity,
            active_context=model.active_context_coefficients(),
            gamma_next=gamma, data_hash=_hash_batch(batch),
            nuisance_fallback=fallback,
            samples=list(batch) if self.keep_fit_inputs else None))
