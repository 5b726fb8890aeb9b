"""Action kernel, exploration schedule, safety monitor, and the epoch policy loop."""

import hashlib
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hte_bandit import policy
from hte_bandit.config import RunConfig
from hte_bandit.core import (ActionDistribution, EpochSchedule, LoggedSample,
                             SampleBatch, inverse_cdf, rng_stream)
from hte_bandit.environments import EnvironmentSpec, _unit_sphere, build_environment
from hte_bandit.oracle import (
    cross_fit_mu,
    empirical_rloss,
    estimation_rate,
    fit_rloss,
    fit_rloss_lasso,
)
from hte_bandit.policy import (
    GAMMA_COEF,
    Policy,
    SafetyMonitor,
    _hash_batch,
    gamma_schedule,
    igw_kernel,
)
from hte_bandit.runner import implicit_regret_sweep, run_single


# -- inverse gap weighting ------------------------------------------------------

def test_kernel_equal_scores_are_uniform():
    for gamma in (0.5, 1.0, 100.0):
        np.testing.assert_allclose(igw_kernel(np.array([0.5, 0.5]), gamma).probs,
                                   [0.5, 0.5], atol=1e-15)


def test_kernel_two_action_example():
    d = igw_kernel(np.array([1.0, 0.0]), 2.0)
    assert d.prob(2) == pytest.approx(0.25, abs=1e-15)
    assert d.prob(1) == pytest.approx(0.75, abs=1e-15)


def test_kernel_three_action_tie_break():
    d = igw_kernel(np.array([1.0, 1.0, 0.0]), 4.0)
    # argmax resolves to the lowest index; the other tied action gets 1/K
    np.testing.assert_allclose(d.probs, [11.0 / 21.0, 1.0 / 3.0, 1.0 / 7.0],
                               atol=1e-15)


def test_kernel_validation():
    with pytest.raises(ValueError):
        igw_kernel(np.array([1.0, 0.0]), 0.0)
    with pytest.raises(ValueError):
        igw_kernel(np.array([1.0, 0.0]), -1.0)
    with pytest.raises(ValueError):
        igw_kernel(np.array([1.0, np.nan]), 1.0)
    with pytest.raises(ValueError):
        igw_kernel(np.array([1.0]), 1.0)
    # one gamma per row: every entry positive and finite, one per score row,
    # and only for a block of rows
    S = np.array([[1.0, 0.0], [0.5, 2.0], [0.0, 0.0]])
    for bad in (np.nan, 0.0, np.inf, -1.0):
        with pytest.raises(ValueError):
            igw_kernel(S, np.array([1.0, bad, 2.0]))
    for wrong_length in (np.array([1.0, 2.0]), np.ones(4), np.ones((3, 1))):
        with pytest.raises(ValueError):
            igw_kernel(S, wrong_length)
    with pytest.raises(ValueError):
        igw_kernel(np.array([1.0, 0.0]), np.array([1.0]))


def test_kernel_floor_and_leader_mass():
    rng = rng_stream(30, 0)
    for _ in range(500):
        K = int(rng.integers(2, 6))
        s = 2.0 * rng.standard_normal(K)
        gamma = float(np.exp(rng.uniform(0, 7)))
        p = igw_kernel(s, gamma).probs
        ahat = int(np.argmax(s))
        assert p[ahat] >= 1.0 / K - 1e-15
        assert p[ahat] == p.max()
        assert p.min() >= 1.0 / (K + gamma * np.ptp(s)) - 1e-15
        assert abs(p.sum() - 1.0) <= 1e-12


class FixedUniform:
    """Stands in for a generator whose next uniform is u."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def reference_draw(probs, u):
    """Inverse CDF written out: first action whose running sum exceeds u."""
    c = 0.0
    for i, pi in enumerate(probs):
        c += pi
        if u < c:
            return i + 1
    return probs.size


@settings(max_examples=150, deadline=None)
@given(K=st.integers(2, 1000), rows=st.integers(1, 5),
       log_gamma=st.floats(0.0, 9.0), seed=st.integers(0, 2 ** 32 - 1),
       ties=st.booleans())
def test_block_kernel_rows_match_single_calls(K, rows, log_gamma, seed, ties):
    rng = np.random.default_rng(seed)
    S = 3.0 * rng.standard_normal((rows, K))
    if ties:
        S = np.round(S)          # exact ties, at the maximum too
    gamma = math.exp(log_gamma)
    P = igw_kernel(S, gamma)
    assert P.shape == (rows, K)
    for i in range(rows):
        row = igw_kernel(S[i], gamma).probs
        assert P[i].tobytes() == row.tobytes()
        lead = int(np.argmax(S[i]))
        others = np.arange(K) != lead
        assert abs(P[i].sum() - 1.0) <= 1e-12
        assert P[i, lead] >= 1.0 / K - K * np.finfo(float).eps
        floor = 1.0 / (K + gamma * (S[i].max() - S[i].min()))
        assert np.all(P[i, others] >= floor)
        assert P[i, lead] >= floor - K * np.finfo(float).eps

    # one gamma per row: row i equals the one-row call at its own gamma
    gammas = np.exp(rng.uniform(0.0, 9.0, rows))
    P_rows = igw_kernel(S, gammas)
    assert P_rows.shape == (rows, K)
    for i in range(rows):
        assert P_rows[i].tobytes() == igw_kernel(S[i], float(gammas[i])).probs.tobytes()

    u = rng.random(rows)
    u[-1] = np.cumsum(P[-1])[-1]         # at the last running sum: action K
    actions = inverse_cdf(P, u)
    assert actions[-1] == K
    for i in range(rows):
        single = ActionDistribution(P[i]).sample(FixedUniform(u[i]))
        assert actions[i] == single == reference_draw(P[i], u[i])


def test_batch_hash_is_pinned_and_chunk_free(monkeypatch):
    """The packed-row digest of a fixed batch, pinned to the value the
    per-sample hash gave; the column form and the chunk size leave it be."""
    X = np.arange(15.0).reshape(5, 3) / 7.0
    A = [1, 2, 3, 1, 2]
    P = [[0.2, 0.3, 0.5], [0.6, 0.25, 0.15], [0.1, 0.1, 0.8],
         [1 / 3, 1 / 3, 1 / 3], [0.5, 0.5, 0.0]]
    r = [-0.25, 0.0, 1.5, 2.0 / 3.0, 1e-300]
    samples = [LoggedSample(X[i], A[i], ActionDistribution(P[i]), r[i])
               for i in range(5)]
    want = "58e908827feec0de09f994d5cb04f01c2b9c5290295cbeb669fec2c24d4f4f6d"
    assert _hash_batch(samples) == want
    assert _hash_batch(SampleBatch.of(samples)) == want
    row_bytes = 3 * 8 + 4 + 3 * 8 + 8
    for chunk in (1, 2 * row_bytes + 1):
        monkeypatch.setattr(policy, "HASH_CHUNK_BYTES", chunk)
        assert _hash_batch(samples) == want


def test_batch_hash_of_no_rows_is_the_empty_digest():
    assert _hash_batch([]) == hashlib.sha256().hexdigest()


def test_batch_slices_like_a_sample_list():
    X = np.arange(12.0).reshape(4, 3)
    P = np.array([[0.2, 0.8], [0.5, 0.5], [1.0, 0.0], [0.4, 0.6]])
    batch = SampleBatch(X, np.array([1, 2, 1, 2]), P,
                        np.array([0.5, -1.0, 2.0, 0.25])).with_mu(np.arange(4.0))
    part = batch[1:4:2]
    assert isinstance(part, SampleBatch) and len(part) == 2
    for got, want in zip(part, list(batch)[1:4:2]):
        assert np.array_equal(got.context, want.context)
        assert (got.action, got.reward, got.mu_hat) == \
            (want.action, want.reward, want.mu_hat)
        assert np.array_equal(got.propensities.probs, want.propensities.probs)
    assert len(SampleBatch(X, np.array([1, 2, 1, 2]), P, np.zeros(4))[:0]) == 0


# -- exploration schedule ---------------------------------------------------------

def test_gamma_frozen_values():
    K = 2
    assert gamma_schedule(10, 2, 0.025, K, lambda n, z: K / 8) == \
        pytest.approx(1.0, abs=1e-12)
    # sqrt(1/8) * sqrt(2 / 0.5) = 0.707... floored to 1
    assert gamma_schedule(10, 2, 0.025, K, lambda n, z: 0.5) == 1.0
    expect = GAMMA_COEF * math.sqrt(2 / 0.005)
    assert gamma_schedule(10, 2, 0.025, K, lambda n, z: 0.005) == \
        pytest.approx(expect, abs=1e-12)


def test_gamma_passes_shrinking_confidence():
    seen = {}
    gamma_schedule(64, 5, 0.025, 2, lambda n, z: seen.update(n=n, z=z) or 0.5)
    assert seen["n"] == 64
    assert seen["z"] == pytest.approx(0.025 / 25, abs=1e-15)


def test_gamma_validation():
    with pytest.raises(ValueError):
        gamma_schedule(0, 2, 0.025, 2, lambda n, z: 0.5)
    with pytest.raises(ValueError):
        gamma_schedule(10, 1, 0.025, 2, lambda n, z: 0.5)
    with pytest.raises(ValueError):
        gamma_schedule(10, 2, 0.0, 2, lambda n, z: 0.5)
    with pytest.raises(ValueError):
        gamma_schedule(10, 2, 0.025, 2, lambda n, z: 0.0)
    with pytest.raises(ValueError):
        gamma_schedule(10, 2, 0.025, 2, lambda n, z: 1.5)
    with pytest.raises(ValueError):   # K / xi overflows: gamma is not finite
        gamma_schedule(10, 2, 0.025, 2, lambda n, z: 1e-320)


def test_gamma_monotone_over_doubling_epochs():
    # with the confidence argument held fixed, growing batches can only
    # raise gamma; the per-epoch confidence shrink is checked separately
    sched = EpochSchedule("doubling", base=16)
    rate = lambda n, z: estimation_rate(n, 0.00625, dim=12, scale=0.01)
    gammas = [gamma_schedule(sched.epoch_length(m - 1), m, 0.025, 2, rate)
              for m in range(2, 31)]
    assert all(b >= a for a, b in zip(gammas, gammas[1:]))
    assert gammas[0] >= 1.0


# -- safety monitor ----------------------------------------------------------------

def test_monitor_validation():
    with pytest.raises(ValueError):
        SafetyMonitor(1.0, 1.0)
    mon = SafetyMonitor(0.0, 1.0)
    with pytest.raises(ValueError):
        mon.record(1, 1.5)


def test_monitor_first_epoch_always_safe():
    mon = SafetyMonitor(0.0, 1.0, n_min=32)
    for t in range(1, 100):
        mon.record(1, 0.1)
        assert mon.check(t, 1, 0.05) == (True, 0)


def test_monitor_check_before_the_epochs_first_reward_is_safe():
    """An epoch with no reward yet, unlisted or listed with count 0, has no
    mean to test, even beside a benchmark epoch."""
    mon = SafetyMonitor(0.0, 1.0, n_min=1)
    mon.record(1, np.ones(5))
    assert mon.check(10, 2, 0.05) == (True, 0)
    mon.record(2, np.array([]))
    assert mon.counts == [5, 0]
    assert mon.check(10, 2, 0.05) == (True, 0)


def test_monitor_constant_rewards_never_trigger():
    mon = SafetyMonitor(0.0, 1.0, n_min=32)
    t = 0
    for epoch in (1, 2, 3, 4):
        for _ in range(200):
            t += 1
            mon.record(epoch, 0.6)
            assert mon.check(t, epoch, 0.05)[0]


def test_monitor_ignores_short_epochs():
    mon = SafetyMonitor(0.0, 1.0, n_min=32)
    for _ in range(31):                  # below n_min: never a benchmark
        mon.record(1, 1.0)
    for t in range(1, 500):
        mon.record(2, 0.0)
        assert mon.check(31 + t, 2, 0.05) == (True, 0)


def closed_form_trigger(n_bench, t0, delta, lo=0.1, hi=0.9,
                        bench_epoch=2, cur_epoch=3):
    """First round at which the dip's upper bound leaves the benchmark's
    Hoeffding lower bound, evaluated directly from the two widths."""
    def width(j, n, t):
        return math.sqrt(math.log(4.0 * j * j * t * t / delta) / (2.0 * n))
    for n_cur in range(1, 100_000):
        t = t0 + n_cur
        if lo + width(cur_epoch, n_cur, t) < hi - width(bench_epoch, n_bench, t):
            return t
    raise AssertionError("no trigger found")


def test_monitor_adversarial_stream_matches_closed_form():
    delta = 0.05
    mon = SafetyMonitor(0.0, 1.0, n_min=32)
    for _ in range(2):
        mon.record(1, 0.9)               # too short to certify
    for _ in range(512):
        mon.record(2, 0.9)
    t0 = 2 + 512
    predicted = closed_form_trigger(512, t0, delta)
    trigger = None
    for n3 in range(1, 4000):
        t = t0 + n3
        mon.record(3, 0.1)
        ok, best = mon.check(t, 3, delta)
        if not ok:
            trigger = (t, best)
            break
    assert trigger is not None
    assert trigger[0] == predicted
    assert trigger[1] == 2               # reverts to the certified epoch


def test_monitor_cache_follows_records_into_older_epochs():
    """Recording into an older epoch after a block check of the current
    epoch must change the next block's outcome exactly as it changes that
    of a monitor which never checked before the record."""
    delta = 0.05
    checked, fresh = SafetyMonitor(0.0, 1.0, n_min=32), SafetyMonitor(0.0, 1.0, n_min=32)
    for mon in (checked, fresh):
        mon.record(1, np.full(40, 0.5))
        mon.record(2, np.full(40, 0.5))
    # Epoch 3 is played against the two short, loosely bounded epochs: safe.
    assert checked.record_until_trigger(81, 3, delta, np.full(100, 0.45)) == (100, 0)
    fresh.record(3, np.full(100, 0.45))
    for mon in (checked, fresh):
        mon.record(1, np.full(2000, 0.95))   # epoch 1 now certifies ~0.87
    got = checked.record_until_trigger(181, 3, delta, np.full(500, 0.45))
    assert got == fresh.record_until_trigger(181, 3, delta, np.full(500, 0.45))
    assert got[1] == 1 and got[0] < 500
    assert (checked.counts, checked.sums) == (fresh.counts, fresh.sums)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_min=st.integers(1, 64),
       completed=st.lists(st.tuples(st.integers(1, 3000), st.floats(0.4, 1.0)),
                          min_size=0, max_size=4),
       c0=st.integers(0, 50), level=st.floats(0.0, 0.6),
       n=st.integers(0, 400), delta=st.floats(0.001, 0.5))
def test_block_monitor_matches_one_round_checks(seed, n_min, completed, c0,
                                                level, n, delta):
    """record_until_trigger on a block stops where record + check, one round
    at a time, first fail, with the same fallback epoch and statistics.
    Completed epochs may fall short of n_min; their rewards scatter around
    one level each, the block's around its own, so the block triggers at
    any position or not at all."""
    rng = np.random.default_rng(seed)
    spread = lambda mean, size: np.clip(mean + 0.1 * rng.standard_normal(size), 0.0, 1.0)
    history = [spread(mean, count) for count, mean in completed]
    epoch = len(completed) + 1
    start, rewards = spread(level, c0), spread(level, n)
    block, single = SafetyMonitor(0.0, 1.0, n_min), SafetyMonitor(0.0, 1.0, n_min)
    for mon in (block, single):
        for j, r in enumerate(history, start=1):
            mon.record(j, r)
        mon.record(epoch, start)
    t0 = sum(len(r) for r in history) + c0 + 1
    want = (n, 0)
    for i, r in enumerate(rewards):
        single.record(epoch, r)
        ok, best = single.check(t0 + i, epoch, delta)
        if not ok:
            want = (i + 1, best)
            break
    assert block.record_until_trigger(t0, epoch, delta, rewards) == want
    assert (block.counts, block.sums) == (single.counts, single.sums)


# -- policy loop --------------------------------------------------------------------

def drive(policy, contexts, rewards_by_round, rng):
    """Feed scripted (context, reward) rounds through act/record."""
    for t, x in enumerate(contexts, start=1):
        action, dist, info = policy.act(t, x, rng)
        policy.record(t, x, action, dist, rewards_by_round(t), )
    return policy


def test_algorithms_use_the_documented_model_classes():
    sched = EpochSchedule("doubling", base=4)
    assert Policy("hte_igw", 3, 2, sched).feature_map.kind == "arm_block_with_intercept"
    assert Policy("mod_hte_igw", 3, 2, sched).feature_map.kind == "arm_block_with_intercept"
    assert Policy("igw", 3, 2, sched).feature_map.kind == "shared_with_intercept"
    assert Policy("mod_igw", 3, 2, sched).feature_map.kind == "shared_with_intercept"
    with pytest.raises(ValueError):
        Policy("egreedy", 3, 2, sched)


def test_first_epoch_is_uniform():
    rng = rng_stream(40, 2)
    for algo in ("hte_igw", "igw", "mod_hte_igw", "mod_igw", "uniform"):
        pol = Policy(algo, 3, 2, EpochSchedule("doubling", base=8))
        action, dist, info = pol.act(1, np.array([0.6, 0.0, 0.8]), rng)
        np.testing.assert_allclose(dist.probs, 0.5, atol=1e-15)
        assert info["epoch"] == 1 and info["gamma"] == 1.0 and info["safe"]
        assert action in (1, 2)


def test_act_block_rejects_a_block_across_an_epoch_boundary():
    pol = Policy("uniform", 2, 2, EpochSchedule("explicit_list", boundaries=(4, 50)))
    X, u = np.zeros((3, 2)), np.full(3, 0.5)
    assert pol.act_block(2, X, u).epoch == 1          # rounds 2..4: epoch 1
    with pytest.raises(ValueError, match="inside one epoch"):
        pol.act_block(3, X, u)                        # rounds 3..5 span epochs 1, 2


def test_uniform_policy_never_fits():
    pol = Policy("uniform", 2, 2, EpochSchedule("doubling", base=4))
    rng = rng_stream(41, 2)
    x = np.array([1.0, 0.0])
    for t in range(1, 40):
        _, dist, _ = pol.act(t, x, rng)
        np.testing.assert_allclose(dist.probs, 0.5, atol=1e-15)
        pol.record(t, x, 1, dist, 0.3)
    assert pol.fits == []


@pytest.mark.parametrize("algorithm", ("hte_igw", "uniform"))
def test_reward_outside_declared_range_raises(algorithm):
    pol = Policy(algorithm, 2, 2, EpochSchedule("doubling", base=4),
                 reward_range=(0.0, 1.0))
    rng = rng_stream(42, 2)
    x = np.array([1.0, 0.0])
    _, dist, _ = pol.act(1, x, rng)
    with pytest.raises(ValueError):
        pol.record(1, x, 1, dist, 1.2)


def test_empty_epoch_carries_kernel_forward():
    pol = Policy("hte_igw", 2, 2,
                 EpochSchedule("explicit_list", boundaries=(2, 4, 50)),
                 reward_range=(0.0, 1.0))
    rng = rng_stream(43, 2)
    for t in (1, 2):
        x = np.array([math.cos(t), math.sin(t)])
        _, dist, _ = pol.act(t, x, rng)
        pol.record(t, x, 1, dist, 0.5)
    pol.act(30, np.array([1.0, 0.0]), rng)   # skips epoch 2 entirely
    assert len(pol.fits) == 1                 # only epoch 1 had data
    assert pol.kernels[3] == pol.kernels[2]


def test_trigger_freezes_the_certified_kernel():
    """Scripted dip: constant 0.9 through epoch 2, then constant 0.1.
    The policy must trigger at the closed-form round, revert to the epoch-2
    kernel, and keep its propensity function fixed from then on."""
    boundaries = (4, 68, 300, 2000)
    pol = Policy("hte_igw", 2, 2,
                 EpochSchedule("explicit_list", boundaries=boundaries),
                 delta=0.05, seed=7, n_min=32, reward_range=(0.0, 1.0))
    rng = rng_stream(44, 2)
    rng_x = rng_stream(44, 0)
    reward_at = lambda t: 0.9 if t <= 68 else 0.1
    trigger_round = None
    for t in range(1, 301):
        x = rng_x.standard_normal(2)
        action, dist, info = pol.act(t, x, rng)
        pol.record(t, x, action, dist, reward_at(t))
        if trigger_round is None and not pol.safe:
            trigger_round = t
    assert trigger_round == closed_form_trigger(64, 68, 0.05)
    assert pol.safe_epoch == 2
    assert len(pol.fits) == 2                 # epochs 3+ never refit

    frozen_model, frozen_gamma = pol.kernels[2]
    probe = np.array([0.3, -0.4])
    expected = igw_kernel(frozen_model.predict(probe), frozen_gamma).probs
    for t in (301, 500, 1500):                # crosses another epoch boundary
        _, dist, info = pol.act(t, probe, rng)
        np.testing.assert_array_equal(dist.probs, expected)
        assert info["gamma"] == frozen_gamma and not info["safe"]
        pol.record(t, probe, 1, dist, 0.9)    # recovery must not re-arm
    assert not pol.safe
    assert len(pol.fits) == 2


def test_fits_use_only_their_epoch_and_reproduce_bitwise(monkeypatch):
    """Oracle-data discipline: each refit consumes exactly its epoch buffer,
    and rerunning the fit pipeline on the recorded batch reproduces the
    deployed coefficients and exploration rate."""
    cfg = RunConfig(scenario="lin_lin", d=4, horizon=600, algorithm="hte_igw",
                    schedule_kind="doubling", schedule_base=64,
                    rate_const=0.01, seeds=(9,))
    env = build_environment(cfg.env_spec(9))
    pol = Policy("hte_igw", 4, 2, cfg.schedule(), cfg.delta, seed=9,
                 ridge_scale=cfg.ridge_scale, num_folds=2,
                 rate_const=cfg.rate_const, n_min=cfg.n_min,
                 reward_range=cfg.reward_range())
    batches = []   # each refit's batch, as _refit hands it to cross_fit_mu

    def spy(samples, *args, **kwargs):
        batches.append(samples)
        return cross_fit_mu(samples, *args, **kwargs)

    monkeypatch.setattr(policy, "cross_fit_mu", spy)
    rc, rn, ra = (rng_stream(9, s) for s in (0, 1, 2))
    for t in range(1, 601):
        rnd = env.sample_round(rc, rn, t)
        a, dist, _ = pol.act(t, rnd.contexts[0], ra)
        pol.record(t, rnd.contexts[0], a, dist, float(rnd.rewards(np.array([a]))[0]))

    assert [f.data_epoch for f in pol.fits] == [1, 2, 3]
    assert len(batches) == len(pol.fits)
    for rec, samples in zip(pol.fits, batches):
        assert rec.n == cfg.schedule().epoch_length(rec.data_epoch)
        assert rec.n == len(samples)
        assert rec.data_hash == _hash_batch(samples)
        est, fitted = cross_fit_mu(samples, num_folds=2,
                                   ridge=cfg.ridge_scale * rec.n,
                                   reward_range=cfg.reward_range(),
                                   fold_seed=9 * 100_003 + rec.data_epoch)
        refit = fit_rloss(fitted, pol.feature_map,
                          ridge=cfg.ridge_scale * rec.n)
        deployed = pol.kernels[rec.data_epoch + 1][0]
        np.testing.assert_array_equal(refit.theta, deployed.theta)
        rate = lambda n, z: estimation_rate(n, z, pol.feature_map.feature_dim,
                                            cfg.rate_const)
        expect_gamma = gamma_schedule(rec.n, rec.data_epoch + 1,
                                      cfg.delta / 2, 2, rate)
        assert rec.gamma_next == expect_gamma
        assert pol.kernels[rec.data_epoch + 1][1] == expect_gamma


def test_model_selected_gamma_uses_reported_sparsity():
    cfg = RunConfig(scenario="lin_const", d=12, horizon=300,
                    algorithm="mod_hte_igw", schedule_kind="doubling",
                    schedule_base=128, rate_const=0.01, lasso_const=1.5,
                    seeds=(3,))
    env = build_environment(cfg.env_spec(3))
    pol = Policy("mod_hte_igw", 12, 2, cfg.schedule(), cfg.delta, seed=3,
                 rate_const=0.01, lasso_const=1.5, n_min=32,
                 reward_range=cfg.reward_range())
    rc, rn, ra = (rng_stream(3, s) for s in (0, 1, 2))
    for t in range(1, 301):
        rnd = env.sample_round(rc, rn, t)
        a, dist, _ = pol.act(t, rnd.contexts[0], ra)
        pol.record(t, rnd.contexts[0], a, dist, float(rnd.rewards(np.array([a]))[0]))
    (rec,) = pol.fits
    rate = lambda n, z: estimation_rate(n, z, max(rec.model.sparsity, 1), 0.01)
    assert rec.gamma_next == gamma_schedule(rec.n, 2, cfg.delta / 2, 2, rate)


@pytest.mark.parametrize("algorithm", ["hte_igw", "mod_hte_igw"])
def test_fit_records_copy_the_deployed_model_fields(algorithm):
    """Each FitRecord carries the model its refit deployed: a ridge fit has
    lam 0 and 0 sweeps, a lasso fit its penalty and at least one sweep."""
    cfg = RunConfig(scenario="lin_const", d=12, horizon=600, algorithm=algorithm,
                    schedule_kind="doubling", schedule_base=64, rate_const=0.01,
                    lasso_const=1.5, seeds=(4,))
    env = build_environment(cfg.env_spec(4))
    pol = Policy(algorithm, 12, 2, cfg.schedule(), cfg.delta, seed=4,
                 ridge_scale=cfg.ridge_scale, rate_const=0.01, lasso_const=1.5,
                 n_min=32, reward_range=cfg.reward_range())
    rc, rn, ra = (rng_stream(4, s) for s in (0, 1, 2))
    for t in range(1, 601):
        rnd = env.sample_round(rc, rn, t)
        a, dist, _ = pol.act(t, rnd.contexts[0], ra)
        pol.record(t, rnd.contexts[0], a, dist, float(rnd.rewards(np.array([a]))[0]))

    assert [f.data_epoch for f in pol.fits] == [1, 2, 3]
    for rec in pol.fits:
        assert rec.model is pol.kernels[rec.data_epoch + 1][0]
        model = rec.model
        if algorithm == "hte_igw":
            assert (model.lam, model.sweeps) == (0.0, 0)
        else:
            assert model.lam > 0.0 and model.converged and model.sweeps >= 1


@pytest.mark.parametrize("bad", [math.inf, math.nan, 1e308])
def test_a_fit_whose_scores_could_overflow_is_not_deployed(monkeypatch, bad):
    """A refit whose theta has a NaN, or a 1-norm that doubled overflows, is
    recorded but not deployed: the kernel before it carries forward, as over
    an empty epoch, and play goes on."""
    fit_rloss = policy.fit_rloss

    def overflowing(samples, feature_map, ridge=0.0):
        model = fit_rloss(samples, feature_map, ridge)
        if len(pol.fits) >= 1:
            model.theta[0] = bad
        return model

    monkeypatch.setattr(policy, "fit_rloss", overflowing)
    cfg = RunConfig(scenario="lin_lin", d=4, horizon=600, algorithm="hte_igw",
                    schedule_kind="doubling", schedule_base=64, seeds=(4,))
    env = build_environment(cfg.env_spec(4))
    pol = cfg.policy(4)
    rc, rn, ra = (rng_stream(4, s) for s in (0, 1, 2))
    for t in range(1, 601):
        rnd = env.sample_round(rc, rn, t)
        a, dist, _ = pol.act(t, rnd.contexts[0], ra)
        pol.record(t, rnd.contexts[0], a, dist, float(rnd.rewards(np.array([a]))[0]))

    first, *rest = pol.fits
    assert [f.data_epoch for f in pol.fits] == [1, 2, 3]
    assert first.model is pol.kernels[2][0]
    for rec in rest:
        assert not math.isfinite(2.0 * float(rec.model.theta[0]))
        assert pol.kernels[rec.data_epoch + 1] is pol.kernels[2]


def test_identical_runs_produce_identical_sequences():
    cfg = RunConfig(scenario="lin_lin", d=4, horizon=600, algorithm="hte_igw",
                    schedule_kind="doubling", schedule_base=64,
                    rate_const=0.01, seeds=(5,))
    a = run_single(cfg, 5)
    b = run_single(cfg, 5)
    np.testing.assert_array_equal(a.gamma, b.gamma)
    np.testing.assert_array_equal(a.propensity, b.propensity)
    np.testing.assert_array_equal(a.reward, b.reward)
    assert [f.data_hash for f in a.fits] == [f.data_hash for f in b.fits]
    assert [f.gamma_next for f in a.fits] == [f.gamma_next for f in b.fits]


def test_logged_propensities_respect_the_kernel_floor():
    """Every sampled action keeps its kernel floor 1/(K + gamma * max_gap);
    on this realizable run the simpler 1/(K + gamma) form holds as well."""
    cfg = RunConfig(scenario="lin_lin", d=20, horizon=5000,
                    algorithm="hte_igw", schedule_kind="doubling",
                    schedule_base=128, rate_const=0.01, seeds=(101,))
    res = run_single(cfg, 101)
    assert res.min_floor_margin >= -1e-12
    assert (res.propensity - 1.0 / (2.0 + res.gamma)).min() >= 0.0


def test_implicit_regret_stays_below_k_over_gamma():
    cfg = RunConfig(scenario="lin_lin", d=10, horizon=2000,
                    algorithm="hte_igw", schedule_kind="doubling",
                    schedule_base=16, rate_const=0.01, seeds=(3,))
    assert implicit_regret_sweep(cfg, 3) <= 1e-12


def test_refit_improves_holdout_rloss():
    """After a 4096-sample epoch the new model does at least as well as its
    predecessor on a fresh holdout drawn under the data-collection kernel."""
    cfg = RunConfig(scenario="lin_lin", d=20, horizon=8193,
                    algorithm="hte_igw", schedule_kind="doubling",
                    schedule_base=128, rate_const=0.01, seeds=(101,))
    env = build_environment(cfg.env_spec(101))
    pol = Policy("hte_igw", 20, 2, cfg.schedule(), cfg.delta, seed=101,
                 ridge_scale=cfg.ridge_scale, num_folds=2, rate_const=0.01,
                 n_min=32, reward_range=cfg.reward_range())
    rc, rn, ra = (rng_stream(101, s) for s in (0, 1, 2))
    for t in range(1, 8194):
        rnd = env.sample_round(rc, rn, t)
        a, dist, _ = pol.act(t, rnd.contexts[0], ra)
        pol.record(t, rnd.contexts[0], a, dist, float(rnd.rewards(np.array([a]))[0]))
    old_model, old_gamma = pol.kernels[6]     # fit on the 2048-sample epoch
    new_model, _ = pol.kernels[7]             # fit on the 4096-sample epoch

    rv = rng_stream(900, 5)
    holdout = []
    for _ in range(4096):
        x = _unit_sphere(rv, 1, cfg.d)[0]
        dist = igw_kernel(old_model.predict(x), old_gamma)
        a = dist.sample(rv)
        r = float(env.mean_rewards(x[None])[0, a - 1] + env.sample_noise(rv, 1)[0])
        holdout.append(LoggedSample(context=x, action=a, propensities=dist,
                                    reward=r))
    _, fitted = cross_fit_mu(holdout, num_folds=2, ridge=1e-6 * 4096,
                             reward_range=cfg.reward_range(), fold_seed=55)
    assert empirical_rloss(new_model, fitted) <= empirical_rloss(old_model, fitted)


# -- defaults declared twice ---------------------------------------------------

@pytest.mark.parametrize("ctor,name", [
    (EnvironmentSpec, "num_actions"), (EnvironmentSpec, "sigma"),
    (EnvironmentSpec, "amplitude"), (EnvironmentSpec, "period"),
    (Policy, "delta"), (Policy, "ridge_scale"), (Policy, "num_folds"),
    (Policy, "rate_const"), (Policy, "lasso_const"), (Policy, "n_min"),
    (SafetyMonitor, "n_min"),
], ids=lambda v: getattr(v, "__name__", v))
def test_run_config_defaults_match_the_constructors_they_feed(ctor, name):
    """Direct construction and a load_config run with no keys set must agree."""
    assert getattr(RunConfig(), name) == inspect.signature(ctor).parameters[name].default
