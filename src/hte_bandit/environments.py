"""Synthetic benchmark environments.

Contexts are uniform on the unit sphere S^d, rewards decompose as
f(x, a) = g(x, a) + h(x) with g the treatment-effect part and h an
action-independent confounder, and the additive noise is a centered
uniform with configurable variance.  Five scenarios:

lin_lin        g(x,a) = 1 + <theta_a, x>,               h = 0
lin_const      g(x,a) = u_a + 1[a=1],                   h(x) = 1 + <theta, x>
step_lin       g(x,a) = u_a + 1[a=1],                   h(x) = -1[x_1 > 1/4] max_a (1 + <theta_a, x>)
perturbed      g(x,a) = 1[a=1] + <theta_a, x> + sin(<theta_a, x>),  h as step_lin (same theta_a)
nonstationary  lin_const with h_t(x) = 1 + <theta, x> + A sin(2 pi t / P)

theta vectors are uniform on S^d, u_a uniform on [0,1], all drawn once at
construction from the environment seed's parameter stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .core import STREAM_PARAMS, rng_stream

SCENARIOS = ("lin_lin", "lin_const", "step_lin", "perturbed", "nonstationary")


@dataclass(frozen=True)
class EnvironmentSpec:
    scenario: str
    d: int
    num_actions: int = 2
    sigma: float = 0.1
    horizon: int = 10_000
    seed: int = 0
    amplitude: float = 0.5   # nonstationary only
    period: float = 500.0

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.d < 1:
            raise ValueError("context dimension must be positive")
        if self.num_actions < 2:
            raise ValueError("need at least two actions")
        if not self.sigma >= 0:
            raise ValueError("noise scale must be nonnegative")
        if self.horizon < 0:
            raise ValueError("horizon must be nonnegative")
        if self.scenario == "nonstationary" and not self.period > 0:
            raise ValueError("period must be positive")


@dataclass(frozen=True)
class GroundTruth:
    """Scenario parameters; fields unused by a scenario stay None."""

    thetas: Optional[np.ndarray] = None   # (K, d) unit rows
    theta: Optional[np.ndarray] = None    # (d,) unit vector
    u: Optional[np.ndarray] = None        # (K,) uniform [0,1]


@dataclass(frozen=True)
class Round:
    """One environment draw: the intended noise is shared across actions."""

    t: int
    context: np.ndarray
    mean_rewards: np.ndarray   # f(x, .) as a (K,) vector
    noise: float

    def reward(self, action: int) -> float:
        return float(self.mean_rewards[action - 1] + self.noise)


def _unit_sphere(rng: np.random.Generator, d: int) -> np.ndarray:
    while True:
        v = rng.standard_normal(d)
        n = np.linalg.norm(v)
        if n > 1e-12:
            return v / n


class Environment:
    """A built scenario: ground truth frozen, per-round sampling exposed."""

    def __init__(self, spec: EnvironmentSpec, truth: Optional[GroundTruth] = None):
        self.spec = spec
        if truth is not None:
            self.truth = truth
            return
        rng = rng_stream(spec.seed, STREAM_PARAMS)
        K, d = spec.num_actions, spec.d
        s = spec.scenario
        # Draw order is fixed per scenario so seeds replay exactly.
        if s == "lin_lin":
            thetas = np.stack([_unit_sphere(rng, d) for _ in range(K)])
            self.truth = GroundTruth(thetas=thetas)
        elif s in ("lin_const", "nonstationary"):
            u = rng.uniform(0.0, 1.0, size=K)
            theta = _unit_sphere(rng, d)
            self.truth = GroundTruth(theta=theta, u=u)
        elif s == "step_lin":
            u = rng.uniform(0.0, 1.0, size=K)
            thetas = np.stack([_unit_sphere(rng, d) for _ in range(K)])
            self.truth = GroundTruth(thetas=thetas, u=u)
        else:  # perturbed: one theta set shared by effect and confounder
            thetas = np.stack([_unit_sphere(rng, d) for _ in range(K)])
            self.truth = GroundTruth(thetas=thetas)

    @property
    def num_actions(self) -> int:
        return self.spec.num_actions

    def g_star(self, x: np.ndarray) -> np.ndarray:
        """Treatment-effect part g(x, .) as a (K,) vector."""
        s, tr = self.spec.scenario, self.truth
        K = self.spec.num_actions
        if s == "lin_lin":
            return 1.0 + tr.thetas @ x
        if s in ("lin_const", "nonstationary", "step_lin"):
            g = tr.u.copy()
            g[0] += 1.0
            return g
        g = tr.thetas @ x
        g = g + np.sin(g)
        g[0] += 1.0
        return g

    def h_star(self, x: np.ndarray, t: int = 1) -> float:
        s, tr = self.spec.scenario, self.truth
        if s == "lin_lin":
            return 0.0
        if s == "lin_const":
            return 1.0 + float(tr.theta @ x)
        if s == "nonstationary":
            drift = self.spec.amplitude * math.sin(2.0 * math.pi * t / self.spec.period)
            return 1.0 + float(tr.theta @ x) + drift
        # step_lin / perturbed confounder
        if x[0] <= 0.25:
            return 0.0
        return -float(np.max(1.0 + tr.thetas @ x))

    def mean_rewards(self, x: np.ndarray, t: int = 1) -> np.ndarray:
        return self.g_star(x) + self.h_star(x, t)

    def sample_context(self, rng: np.random.Generator) -> np.ndarray:
        return _unit_sphere(rng, self.spec.d)

    def sample_noise(self, rng: np.random.Generator) -> float:
        # Centered uniform with variance sigma^2: width sqrt(12) sigma.
        return math.sqrt(12.0) * self.spec.sigma * (rng.random() - 0.5)

    def sample_round(self, rng_context: np.random.Generator,
                     rng_noise: np.random.Generator, t: int = 1) -> Round:
        x = self.sample_context(rng_context)
        return Round(t=t, context=x, mean_rewards=self.mean_rewards(x, t),
                     noise=self.sample_noise(rng_noise))


def reward_bounds(spec: EnvironmentSpec) -> Tuple[float, float]:
    """Interval holding every realized reward: the mean-reward extremes of the
    formulas above (|<theta, x>| <= 1, u in [0, 1]) widened by the noise
    half-width sqrt(3) sigma."""
    lo, hi = {
        "lin_lin": (0.0, 2.0),
        "lin_const": (0.0, 4.0),
        "step_lin": (-2.0, 2.0),
        "perturbed": (-3.0 - math.sin(1.0), 2.0 + math.sin(1.0)),
        "nonstationary": (-abs(spec.amplitude), 4.0 + abs(spec.amplitude)),
    }[spec.scenario]
    half_width = math.sqrt(3.0) * spec.sigma
    return lo - half_width, hi + half_width


def build_environment(spec: EnvironmentSpec) -> Environment:
    return Environment(spec)


def optimal_action(round_: Round) -> int:
    """Best action under the round's mean rewards, lowest index on ties."""
    return int(np.argmax(round_.mean_rewards)) + 1


def expected_regret(round_: Round, action: int) -> float:
    """Mean-reward shortfall of `action`; nonnegative by construction."""
    m = round_.mean_rewards
    return float(np.max(m) - m[action - 1])
