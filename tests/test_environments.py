"""Scenario generators: formulas, decomposition structure, noise law, determinism."""

import numpy as np
import pytest

from hte_bandit.core import rng_stream
from hte_bandit.environments import (
    SCENARIOS,
    Environment,
    EnvironmentSpec,
    GroundTruth,
    Rounds,
    build_environment,
    reward_bounds,
)


def spec_for(scenario, d=6, K=2, seed=5, sigma=0.1, **kw):
    return EnvironmentSpec(scenario=scenario, d=d, num_actions=K, sigma=sigma,
                           seed=seed, **kw)


def test_spec_validation():
    with pytest.raises(ValueError):
        spec_for("linlin")
    with pytest.raises(ValueError):
        spec_for("lin_lin", d=0)
    with pytest.raises(ValueError):
        spec_for("lin_lin", K=1)
    with pytest.raises(ValueError):
        EnvironmentSpec(scenario="lin_lin", d=4, num_actions=2, sigma=-0.1,
                        seed=0)


def test_paper_scale_spec_accepted():
    env = build_environment(EnvironmentSpec(scenario="lin_lin", d=100,
                                            num_actions=2, sigma=0.1,
                                            seed=1))
    rnd = env.sample_round(rng_stream(1, 0), rng_stream(1, 1), t=1)
    assert rnd.contexts.shape == (1, 100)
    assert rnd.mean_rewards.shape == (1, 2)


def test_lin_lin_mean_reward_with_basis_truth():
    e1 = np.zeros(4)
    e1[0] = 1.0
    env = Environment(spec_for("lin_lin", d=4),
                      truth=GroundTruth(thetas=np.stack([e1, e1])))
    assert env.mean_rewards(e1)[0] == pytest.approx(2.0, abs=1e-12)


def test_lin_const_effect_gap_is_context_free():
    truth = GroundTruth(u=np.array([0.3, 0.6]), theta=np.zeros(4))
    env = Environment(spec_for("lin_const", d=4), truth=truth)
    rng = rng_stream(9, 0)
    for _ in range(25):
        g = env.g_star(env.sample_context(rng))
        assert g[0] - g[1] == pytest.approx(0.7, abs=1e-12)


def test_unit_sphere_contexts():
    env = build_environment(spec_for("lin_lin"))
    rng = rng_stream(2, 0)
    for _ in range(200):
        assert abs(np.linalg.norm(env.sample_context(rng)) - 1.0) <= 1e-12


class ScriptedNormals:
    """Generator stand-in whose standard normals come from a fixed list."""

    def __init__(self, values):
        self.values = list(values)

    def standard_normal(self, shape):
        n = int(np.prod(shape))
        out, self.values = self.values[:n], self.values[n:]
        return np.array(out, dtype=float).reshape(shape)


def test_unit_sphere_block_redraws_degenerate_rows():
    """A row with norm <= 1e-12 is skipped, as the one-context draw skips
    it, and the rows after it move up the stream."""
    rows = [[3.0, 4.0], [0.0, 0.0], [1e-13, 0.0], [0.0, -2.0], [5.0, 12.0],
            [-1.0, 0.0]]
    flat = [v for row in rows for v in row]
    env = build_environment(spec_for("lin_lin", d=2))
    block = env.sample_rounds(ScriptedNormals(flat), rng_stream(1, 1), 1, 4)
    one = ScriptedNormals(flat)
    singles = [env.sample_context(one) for _ in range(4)]
    want = [[0.6, 0.8], [0.0, -1.0], [5.0 / 13.0, 12.0 / 13.0], [-1.0, 0.0]]
    np.testing.assert_array_equal(block.contexts, singles)
    np.testing.assert_allclose(block.contexts, want, atol=1e-15)


def test_truth_vectors_are_unit_norm_and_u_in_range():
    for scenario in SCENARIOS:
        env = build_environment(spec_for(scenario, seed=13))
        tr = env.truth
        if tr.thetas is not None:
            np.testing.assert_allclose(np.linalg.norm(tr.thetas, axis=1), 1.0,
                                       atol=1e-12)
        if tr.theta is not None:
            assert abs(np.linalg.norm(tr.theta) - 1.0) <= 1e-12
        if tr.u is not None:
            assert np.all((tr.u >= 0.0) & (tr.u <= 1.0))


def test_noise_law():
    env = build_environment(spec_for("lin_lin"))
    rng = rng_stream(21, 0)
    draws = np.array([env.sample_noise(rng) for _ in range(1_000_000)])
    half_width = np.sqrt(12.0) * 0.1 / 2.0
    assert np.all(np.abs(draws) <= half_width)
    assert abs(draws.mean()) <= 5e-4
    assert draws.var() == pytest.approx(0.01, abs=5e-4)
    silent = build_environment(spec_for("lin_lin", sigma=0.0))
    assert all(silent.sample_noise(rng) == 0.0 for _ in range(10))


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_rewards_lie_within_reward_bounds(scenario):
    """Every sampled mean reward lies in the noiseless bounds and every
    realized reward in the noisy ones; on lin_lin the bounds are reached."""
    means, rewards = [], []
    for seed in range(1, 11):
        spec = spec_for(scenario, d=2, K=3, seed=seed, sigma=0.3,
                        amplitude=1.5, period=7.0)
        env = build_environment(spec)
        rc, rn = rng_stream(seed, 0), rng_stream(seed, 1)
        for t in range(1, 501):
            rnd = env.sample_round(rc, rn, t)
            means.append(rnd.mean_rewards[0])
            rewards.append(rnd.mean_rewards[0] + rnd.noise[0])
    means, rewards = np.concatenate(means), np.concatenate(rewards)
    lo, hi = reward_bounds(spec)
    assert lo <= rewards.min() and rewards.max() <= hi
    mean_lo, mean_hi = reward_bounds(spec_for(scenario, sigma=0.0,
                                              amplitude=1.5, period=7.0))
    assert mean_lo - 1e-12 <= means.min() and means.max() <= mean_hi + 1e-12
    if scenario == "lin_lin":
        assert means.min() <= mean_lo + 1e-3 and means.max() >= mean_hi - 1e-3


def test_reward_decomposition_gap_structure():
    """mean_rewards - g_star is the same scalar for every action: the
    confounder h never moves between-action gaps."""
    rng = rng_stream(33, 0)
    for scenario in SCENARIOS:
        env = build_environment(spec_for(scenario, seed=17))
        for t in (1, 137):
            x = env.sample_context(rng)
            diff = env.mean_rewards(x, t) - env.g_star(x)
            assert np.ptp(diff) <= 1e-12
            assert diff[0] == pytest.approx(env.h_star(x, t), abs=1e-12)


def test_step_confounder_threshold():
    env = build_environment(spec_for("step_lin", seed=3))
    x = np.zeros(6)
    x[0], x[1] = 0.25, np.sqrt(1 - 0.25 ** 2)
    assert env.h_star(x) == 0.0            # boundary itself is inactive
    x[0], x[1] = 0.3, np.sqrt(1 - 0.09)
    expect = -float(np.max(1.0 + env.truth.thetas @ x))
    assert env.h_star(x) == pytest.approx(expect, abs=1e-12)


def test_perturbed_effect_formula():
    env = build_environment(spec_for("perturbed", seed=8))
    rng = rng_stream(4, 0)
    x = env.sample_context(rng)
    z = env.truth.thetas @ x
    expect = z + np.sin(z)
    expect[0] += 1.0
    np.testing.assert_allclose(env.g_star(x), expect, atol=1e-12)
    # confounder reuses the step form with the same coefficient vectors
    if x[0] > 0.25:
        assert env.h_star(x) == pytest.approx(-np.max(1.0 + z), abs=1e-12)


def test_nonstationary_drift():
    env = build_environment(spec_for("nonstationary", seed=6, amplitude=0.5,
                                     period=500.0))
    rng = rng_stream(5, 0)
    x = env.sample_context(rng)
    base = 1.0 + float(env.truth.theta @ x)
    for t in (1, 125, 250, 375):
        drift = 0.5 * np.sin(2.0 * np.pi * t / 500.0)
        assert env.h_star(x, t) == pytest.approx(base + drift, abs=1e-12)
    g = env.g_star(x)
    assert g[0] - g[1] == pytest.approx(env.truth.u[0] + 1.0 - env.truth.u[1],
                                        abs=1e-12)


def test_rebuild_is_deterministic():
    a = build_environment(spec_for("step_lin", seed=19))
    b = build_environment(spec_for("step_lin", seed=19))
    np.testing.assert_array_equal(a.truth.thetas, b.truth.thetas)
    np.testing.assert_array_equal(a.truth.u, b.truth.u)
    c = build_environment(spec_for("step_lin", seed=20))
    assert not np.array_equal(a.truth.thetas, c.truth.thetas)


def test_round_shares_noise_across_actions():
    env = build_environment(spec_for("lin_lin"))
    rnd = env.sample_round(rng_stream(1, 0), rng_stream(1, 1), t=3)
    offsets = [rnd.rewards(np.array([a]))[0] - rnd.mean_rewards[0, a - 1]
               for a in (1, 2)]
    np.testing.assert_allclose(offsets, rnd.noise[0], atol=1e-12)


def test_regret_accounting():
    rnd = Rounds(contexts=np.zeros((1, 2)),
                 mean_rewards=np.array([[0.2, 0.9]]), noise=np.zeros(1))
    assert rnd.expected_regrets(np.array([2]))[0] == 0.0
    assert rnd.expected_regrets(np.array([1]))[0] == pytest.approx(0.7, abs=1e-12)
