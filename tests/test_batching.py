"""Determinism whatever the batching: epoch blocks against round-by-round play.

run_single simulates one epoch block at a time.  The reference here drives
the public one-round API instead (Environment.sample_round, Policy.act and
Policy.record, one call each per round), and every logged column, every
refit's data hash and the monitor's outcome must agree bit for bit.  The
kernel figures run_single computes per block (the implicit-regret slack and
the floor margin) must match the same figures taken one round at a time.
"""

from dataclasses import replace

import numpy as np
import pytest

from hte_bandit.config import RunConfig
from hte_bandit.core import STREAM_ACTION, STREAM_CONTEXT, STREAM_NOISE, rng_stream
from hte_bandit.environments import build_environment, expected_regret
from hte_bandit.runner import run_single

DESK = dict(d=20, num_actions=2, sigma=0.1, horizon=5000,
            schedule_kind="doubling", schedule_base=128,
            delta=0.05, n_min=32, ridge_scale=1e-6, num_folds=2,
            rate_const=0.01, lasso_const=1.5, seeds=(101,))
CELLS = (("lin_lin", "hte_igw"), ("lin_lin", "igw"),
         ("lin_const", "mod_hte_igw"), ("lin_const", "mod_igw"),
         ("step_lin", "hte_igw"), ("step_lin", "igw"), ("step_lin", "uniform"),
         ("perturbed", "mod_hte_igw"), ("perturbed", "mod_igw"))
COLUMNS = ("t", "epoch", "safe", "gamma", "action", "propensity", "reward",
           "expected_regret", "cum_expected_regret")


def round_by_round(cfg: RunConfig, seed: int) -> dict:
    env = build_environment(cfg.env_spec(seed))
    pol = cfg.policy(seed)
    rc, rn, ra = (rng_stream(seed, s)
                  for s in (STREAM_CONTEXT, STREAM_NOISE, STREAM_ACTION))
    rows, trigger_round = [], 0
    slack, margin = -np.inf, np.inf
    K = cfg.num_actions
    for t in range(1, cfg.horizon + 1):
        rnd = env.sample_round(rc, rn, t)
        action, dist, info = pol.act(t, rnd.context, ra)
        s, g = info["scores"], info["gamma"]
        slack = max(slack, float(dist.probs @ (s.max() - s)) - K / g)
        margin = min(margin, dist.prob(action) - 1.0 / (K + g * (s.max() - s.min())))
        reward = rnd.reward(action)
        was_safe = pol.safe
        pol.record(t, rnd.context, action, dist, reward)
        if was_safe and not pol.safe:
            trigger_round = t
        rows.append((t, info["epoch"], int(info["safe"]), info["gamma"], action,
                     dist.prob(action), reward, expected_regret(rnd, action)))
    cols = dict(zip(COLUMNS, (np.array(c) for c in zip(*rows))))
    cols["cum_expected_regret"] = np.cumsum(cols["expected_regret"])
    return dict(cols=cols, hashes=[f.data_hash for f in pol.fits],
                monitor=(not pol.safe, trigger_round, pol.safe_epoch),
                kernel=(slack, margin))


def assert_same_run(cfg: RunConfig, seed: int):
    want = round_by_round(cfg, seed)
    got = run_single(cfg, seed)
    for name in COLUMNS:
        np.testing.assert_array_equal(getattr(got, name), want["cols"][name],
                                      err_msg=name)
        assert getattr(got, name).dtype == want["cols"][name].dtype, name
    assert [f.data_hash for f in got.fits] == want["hashes"]
    assert (got.triggered, got.trigger_round, got.fallback_epoch) == want["monitor"]
    np.testing.assert_allclose((got.max_regret_slack, got.min_floor_margin),
                               want["kernel"], rtol=0, atol=1e-15)
    return got


@pytest.mark.parametrize("scenario,algorithm", CELLS)
def test_acceptance_cells_match_round_by_round(scenario, algorithm):
    cfg = RunConfig(scenario=scenario, algorithm=algorithm, **DESK).validate()
    got = assert_same_run(cfg, 101)
    assert len(got.fits) == (0 if algorithm == "uniform" else 5)


@pytest.mark.parametrize("algorithm", ("hte_igw", "igw"))
def test_monitor_trigger_splits_the_block_identically(algorithm):
    """The drift makes the monitor fire mid-epoch; the rest of that epoch is
    replayed on the fallback kernel from the uniforms already drawn."""
    cfg = RunConfig(scenario="nonstationary", amplitude=1.0, period=8000.0,
                    horizon=8000, algorithm=algorithm, seeds=(1,)).validate()
    got = assert_same_run(cfg, 1)
    assert got.triggered and 5000 <= got.trigger_round <= 6000
    epoch = cfg.schedule().epoch_of(got.trigger_round)
    assert got.trigger_round < cfg.schedule().boundary(epoch)


def test_more_actions_match_round_by_round():
    cfg = RunConfig(scenario="lin_const", algorithm="mod_hte_igw",
                    **{**DESK, "num_actions": 8, "horizon": 3000}).validate()
    assert len(assert_same_run(cfg, 101).fits) == 4


def test_horizon_ending_mid_epoch_matches_round_by_round():
    cfg = RunConfig(scenario="lin_lin", algorithm="hte_igw", d=5, horizon=1000,
                    schedule_kind="explicit_list",
                    schedule_boundaries=(100, 300, 700, 1200),
                    rate_const=0.01, seeds=(3,)).validate()
    got = assert_same_run(cfg, 3)
    assert [f.data_epoch for f in got.fits] == [1, 2, 3]
    # the same run cut at the horizon is a prefix of a longer one
    longer = run_single(replace(cfg, horizon=1200), 3)
    np.testing.assert_array_equal(longer.action[:1000], got.action)
