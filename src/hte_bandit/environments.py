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
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import STREAM_PARAMS, rng_stream, row_products

SCENARIOS = ("lin_lin", "lin_const", "step_lin", "perturbed", "nonstationary")


@dataclass(frozen=True)
class EnvironmentSpec:
    scenario: str
    d: int
    num_actions: int = 2
    sigma: float = 0.1
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
        if self.scenario == "nonstationary" and not self.period > 0:
            raise ValueError("period must be positive")


@dataclass(frozen=True)
class GroundTruth:
    """Scenario parameters; fields unused by a scenario stay None."""

    thetas: Optional[np.ndarray] = None   # (K, d) unit rows
    theta: Optional[np.ndarray] = None    # (d,) unit vector
    u: Optional[np.ndarray] = None        # (K,) uniform [0,1]


@dataclass(frozen=True)
class Rounds:
    """The draws of n consecutive rounds as column arrays."""

    contexts: np.ndarray       # (n, d)
    mean_rewards: np.ndarray   # (n, K)
    noise: np.ndarray          # (n,), each shared across the K actions

    def tail(self, i: int) -> "Rounds":
        """The rounds from row i on."""
        return Rounds(self.contexts[i:], self.mean_rewards[i:], self.noise[i:])

    def _chosen(self, actions: np.ndarray) -> np.ndarray:
        return self.mean_rewards[np.arange(actions.shape[0]), actions - 1]

    def rewards(self, actions: np.ndarray) -> np.ndarray:
        """Realized rewards of actions (1..K) on the first len(actions) rows."""
        return self._chosen(actions) + self.noise[:actions.shape[0]]

    def expected_regrets(self, actions: np.ndarray) -> np.ndarray:
        """Mean-reward shortfalls of actions on the first len(actions) rows."""
        n = actions.shape[0]
        return self.mean_rewards[:n].max(axis=1) - self._chosen(actions)


def _unit_sphere(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n rows uniform on the unit sphere: each row is the next standard
    normal d-vector of the stream whose norm exceeds 1e-12, normalized."""
    V = rng.standard_normal((n, d))
    norms = np.sqrt((V[:, None, :] @ V[:, :, None])[:, 0, 0])
    good = norms > 1e-12
    if good.all():
        V /= norms[:, None]
        return V
    kept = V[good] / norms[good, None]
    return np.concatenate([kept, _unit_sphere(rng, n - kept.shape[0], d)])


class Environment:
    """A built scenario: ground truth frozen, sampling of round blocks exposed.

    Every method takes one context (d,) or a block of contexts (n, d); a
    single context is the n = 1 case of the same code.
    """

    def __init__(self, spec: EnvironmentSpec, truth: Optional[GroundTruth] = None):
        self.spec = spec
        if truth is not None:
            self.truth = truth
            return
        rng = rng_stream(spec.seed, STREAM_PARAMS)
        K, d = spec.num_actions, spec.d
        s = spec.scenario
        # Draw order is fixed per scenario so seeds replay exactly.
        if s in ("lin_lin", "perturbed"):
            # perturbed: one theta set shared by effect and confounder
            self.truth = GroundTruth(thetas=_unit_sphere(rng, K, d))
        elif s in ("lin_const", "nonstationary"):
            u = rng.uniform(0.0, 1.0, size=K)
            theta = _unit_sphere(rng, 1, d)[0]
            self.truth = GroundTruth(theta=theta, u=u)
        else:  # step_lin
            u = rng.uniform(0.0, 1.0, size=K)
            self.truth = GroundTruth(thetas=_unit_sphere(rng, K, d), u=u)

    def g_star(self, x: np.ndarray) -> np.ndarray:
        """Treatment-effect part g(x, .): (K,) for one context, (n, K) for a block."""
        X = np.asarray(x, dtype=float)
        one = X.ndim == 1
        if one:
            X = X[None, :]
        s, tr = self.spec.scenario, self.truth
        if s == "lin_lin":
            g = 1.0 + row_products(tr.thetas, X)
        elif s in ("lin_const", "nonstationary", "step_lin"):
            g = np.empty((X.shape[0], tr.u.size))
            g[:] = tr.u
            g[:, 0] += 1.0
        else:
            g = row_products(tr.thetas, X)
            g = g + np.sin(g)
            g[:, 0] += 1.0
        return g[0] if one else g

    def h_star(self, x: np.ndarray, t=1):
        """Confounder h_t(x): a float for one context, (n,) for a block
        (then t is one round or an (n,) array of rounds)."""
        X = np.asarray(x, dtype=float)
        one = X.ndim == 1
        if one:
            X = X[None, :]
        s, tr = self.spec.scenario, self.truth
        if s == "lin_lin":
            h = np.zeros(X.shape[0])
        elif s == "lin_const":
            h = 1.0 + row_products(tr.theta[None, :], X)[:, 0]
        elif s == "nonstationary":
            # math.sin per round, as numpy's sin need not round alike.
            angle = 2.0 * math.pi * np.broadcast_to(t, X.shape[:1]) / self.spec.period
            try:
                drift = [self.spec.amplitude * math.sin(a) for a in angle.tolist()]
            except ValueError as e:
                raise ValueError(f"drift angle 2 pi t / period overflows at "
                                 f"period {self.spec.period!r}") from e
            h = 1.0 + row_products(tr.theta[None, :], X)[:, 0] + np.array(drift)
        else:  # step_lin / perturbed confounder
            peak = (1.0 + row_products(tr.thetas, X)).max(axis=1)
            h = np.where(X[:, 0] <= 0.25, 0.0, -peak)
        return float(h[0]) if one else h

    def mean_rewards(self, x: np.ndarray, t=1) -> np.ndarray:
        h = self.h_star(x, t)
        return self.g_star(x) + (h if np.ndim(x) == 1 else h[:, None])

    def sample_context(self, rng: np.random.Generator) -> np.ndarray:
        return _unit_sphere(rng, 1, self.spec.d)[0]

    def sample_noise(self, rng: np.random.Generator, n: Optional[int] = None):
        """One noise draw (n None) or an (n,) block of them."""
        # Centered uniform with variance sigma^2: width sqrt(12) sigma.
        return math.sqrt(12.0) * self.spec.sigma * (rng.random(n) - 0.5)

    def sample_rounds(self, rng_context: np.random.Generator,
                      rng_noise: np.random.Generator, t0: int, n: int) -> Rounds:
        """Rounds t0 .. t0 + n - 1; the streams advance exactly as n
        sample_round calls advance them."""
        X = _unit_sphere(rng_context, n, self.spec.d)
        t = np.arange(t0, t0 + n)
        return Rounds(X, self.mean_rewards(X, t), self.sample_noise(rng_noise, n))

    def sample_round(self, rng_context: np.random.Generator,
                     rng_noise: np.random.Generator, t: int = 1) -> Rounds:
        """Round t alone: the one-row Rounds."""
        return self.sample_rounds(rng_context, rng_noise, t, 1)


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


# Declared reward ranges, overridable via [policy] r_lo / r_hi;
# RunConfig.validate checks each contains reward_bounds at the run's sigma
# and amplitude.  The safety monitor's Hoeffding width uses them.
DEFAULT_REWARD_RANGE = {
    "lin_lin": (-0.5, 2.5),
    "lin_const": (-0.5, 4.5),
    "step_lin": (-2.5, 2.5),
    "perturbed": (-4.5, 3.5),
    "nonstationary": (-1.5, 5.5),
}


def build_environment(spec: EnvironmentSpec) -> Environment:
    return Environment(spec)
